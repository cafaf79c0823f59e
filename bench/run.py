"""scatcalc benchmark: census-random, levels and cli.

One workload, as BENCHMARK.json declares it:

    python3 bench/run.py --workload census-random --seed 1 --seconds 30 --trace 0

prints progress on stderr and, as the last line of stdout, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.

Every workload, untraced then traced, with a table of every metric:

    python3 bench/run.py [--seed 1] [--seconds 30]

Run from anywhere; the program is imported from ``src/`` next to this
directory and nowhere else.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path
from types import SimpleNamespace

import calibrate
import census
import cli_calls
import levels
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = {"census-random": census, "levels": levels, "cli": cli_calls}
MODULES = ("term", "ordinal", "rank", "rewrite", "compare", "generators", "oracle")
SETUP_REPEATS = 11
# per-operation medians need a few rounds to filter anything
MIN_ROUNDS = 5
# a tail percentile is reported only with at least this many samples beyond it
TAIL_SAMPLES = 10

END_TO_END = {
    "setup_s": "s",
    "cold_ops_per_s": "1/s",
    "cold_op_p50_us": "us",
    "cold_op_tail_us": "us",
    "warm_ops_per_s": "1/s",
    "round_s": "s",
    "decided_pairs": "pairs",
    "peak_rss_mb": "MB",
}


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def purge() -> None:
    """Forget every scatcalc module, so the next import starts empty."""
    for name in [n for n in sys.modules if n == "scatcalc" or n.startswith("scatcalc.")]:
        del sys.modules[name]
    gc.collect()


def fresh_import(with_cli: bool) -> SimpleNamespace:
    importlib.import_module("scatcalc")
    names = MODULES + (("cli",) if with_cli else ())
    return SimpleNamespace(**{n: importlib.import_module(f"scatcalc.{n}") for n in names})


def scale_round(result: dict, factor: float) -> None:
    """Bring a round's times to the reference speed (see calibrate.py)."""
    result["op_ns"] = array("d", (ns * factor for ns in result["op_ns"]))
    result["warm_ns"] = [ns * factor for ns in result["warm_ns"]]
    result["steps_ns"] = [ns * factor for ns in result["steps_ns"]]
    for times in result.get("main_ms", {}).values():
        times[:] = [ms * factor for ms in times]


def percentile(sorted_values, q: float):
    return sorted_values[max(0, math.ceil(q / 100 * len(sorted_values)) - 1)]


def has_tail(n: int, q: float) -> bool:
    """At least TAIL_SAMPLES of n samples lie beyond the q-th percentile."""
    return n - math.ceil(q / 100 * n) >= TAIL_SAMPLES


def per_op_medians(rounds: list[dict]) -> list[float]:
    """Each operation's median time over the rounds: every round repeats
    the same operations in the same order, so this filters out the
    moments the machine ran slow without dropping any operation."""
    return [statistics.median(times) for times in zip(*(r["op_ns"] for r in rounds))]


def latencies(rounds: list[dict], q: float) -> list[float]:
    """The sample the p50 and the tail are read from: the per-operation
    medians when there are enough operations for the tail, else every
    timed call of every round."""
    if has_tail(len(rounds[0]["op_ns"]), q):
        return sorted(per_op_medians(rounds))
    return sorted(ns for r in rounds for ns in r["op_ns"])


def round_s(rounds: list[dict]) -> float:
    """One round's time, as the sum of each step's median over rounds."""
    return sum(statistics.median(times) for times in zip(*(r["steps_ns"] for r in rounds))) / 1e9


def peak_rss_mb() -> float:
    """Peak resident memory of this process or of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def end_to_end(rounds: list[dict], setup_times: list[float], q: float, rss_mb: float) -> dict[str, float]:
    medians = per_op_medians(rounds)
    sample = latencies(rounds, q)
    warm_pass_ns = statistics.median(ns for r in rounds for ns in r["warm_ns"])
    return {
        "setup_s": statistics.median(setup_times),
        "cold_ops_per_s": len(medians) / (sum(medians) / 1e9),
        "cold_op_p50_us": percentile(sample, 50) / 1e3,
        "cold_op_tail_us": percentile(sample, q) / 1e3,
        "warm_ops_per_s": rounds[0]["warm_ops_per_pass"] / (warm_pass_ns / 1e9),
        "round_s": round_s(rounds),
        "decided_pairs": statistics.median(r["decided"] for r in rounds),
        "peak_rss_mb": rss_mb,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    setup_times = []

    def set_up():
        start = time.perf_counter()
        sc = fresh_import(wl.WITH_CLI)
        inputs = wl.make_inputs(seed)
        wl.prepare(sc, inputs)
        return inputs, time.perf_counter() - start

    for _ in range(SETUP_REPEATS):
        purge()
        (inputs, seconds_taken), factor = calibrate.scaled(set_up)
        setup_times.append(seconds_taken * factor)
    log(f"{name}: set-up {statistics.median(setup_times):.3f}s")

    tracer = tracing.Tracer()
    rounds, traced, untraced, problems, factors = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        traced_round = trace and len(rounds) % 2 == 1
        purge()
        sc = fresh_import(wl.WITH_CLI)
        if traced_round:
            tracer.install(sc)
        state = wl.prepare(sc, inputs)
        gc.collect()
        result, factor = calibrate.scaled(lambda: wl.run_round(sc, state, inputs))
        scale_round(result, factor)
        factors.append(factor)
        if traced_round:
            tracer.uninstall()
            taken = tracer.take()
            layer = tracing.layer_metrics(taken)
            for key in layer:
                if tracing.LAYER_METRICS[key] == "s":
                    layer[key] *= factor
            info = getattr(sc.rank.cb_type, "cache_info", None)
            layer["rank.cb_type.cache_hits"] = info().hits if info else 0
            layer.update(result.get("counts", {}))
            traced.append((result, layer))
            last_spans = taken["spans"]
        else:
            untraced.append(result)
        label = f"round {len(rounds) + 1}"
        problems += [f"{label}: {p}" for p in result.pop("problems")]
        # only the last round's objects stay alive, for the checks
        live = result.pop("live")
        if rounds:
            if result["verdicts"] != rounds[0]["verdicts"]:
                problems.append(f"{label}: verdicts differ from round 1")
            result["verdicts"] = None
        else:
            rss_mb = peak_rss_mb()
        rounds.append(result)
        log(f"{name}: {label} {sum(result['steps_ns']) / 1e9:.3f}s at reference speed,"
            f" machine at {1 / factor:.2f}" + (" traced" if traced_round else ""))
        if trace:
            enough = bool(traced)
        else:
            q = wl.TAIL_PERCENTILE
            ops = len(rounds[0]["op_ns"])
            enough = len(rounds) >= MIN_ROUNDS and (has_tail(ops, q) or has_tail(ops * len(rounds), q))
        if time.perf_counter() >= deadline and enough:
            break

    def fresh() -> SimpleNamespace:
        purge()
        return fresh_import(wl.WITH_CLI)

    if trace:
        tracer.install(sc)
    problems += wl.check(sc, state, live, inputs, rounds[0]["verdicts"], fresh)
    if trace:
        tracer.uninstall()
        check_layer = tracing.layer_metrics(tracer.take())

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    if trace:
        values = {key: 0 for key in tracing.LAYER_METRICS}
        for key in tracing.LAYER_METRICS:
            samples = [layer[key] for _, layer in traced if key in layer]
            if samples:
                values[key] = statistics.median(samples)
        for key in ("oracle.brute_force_le.calls", "oracle.brute_force_le.s"):
            values[key] = check_layer[key]
        if hasattr(wl, "layer_probe"):
            values.update(wl.layer_probe(sc, untraced, calibrate.scaled))
        values["machine.slowdown"] = statistics.median(1 / f for f in factors)
        values["trace.untraced_round_s"] = round_s(untraced)
        values["trace.traced_round_s"] = round_s([r for r, _ in traced])
        units = tracing.LAYER_METRICS
        tracing.write_spans(OUT / f"{name}-seed{seed}-spans.tsv", last_spans)
    else:
        values = end_to_end(rounds, setup_times, wl.TAIL_PERCENTILE, rss_mb)
        units = END_TO_END
    for p in problems[:20]:
        log("PROBLEM:", p)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": units[key]} for key in units},
    }


def run_all(seed: int, seconds: int) -> int:
    """Every workload in its own interpreter, untraced then traced."""
    summary = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                log(f"{name} --trace {trace} exited {done.returncode}")
                return done.returncode
            summary[f"{name} trace={trace}"] = json.loads(done.stdout.strip().splitlines()[-1])
    for run, result in summary.items():
        print(f"\n{run}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for key, metric in result["metrics"].items():
            print(f"  {key:40s} {metric['value']:>16.6g} {metric['unit']}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"summary-seed{seed}.json").write_text(json.dumps(summary, indent=1))
    return 0 if all(r["correct"] for r in summary.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "scatcalc" / "__init__.py").is_file():
        log(f"no scatcalc sources under {SRC}; run from a checkout of the repository")
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
