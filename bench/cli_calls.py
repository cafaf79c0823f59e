"""cli: one client calling the ``scatcalc`` command, closed loop.

A round runs the README's command-line examples plus the known-fault
call ``normalize min(400)`` as subprocesses, one after the other, in an
order the seed shuffles.  Each subprocess starts the interpreter and
imports ``scatcalc.cli`` as the installed ``scatcalc`` script does.
Then, in this process, it passes the README examples to ``cli.main``
twice: first on the fresh import the round starts with (cold), then
again (warm).
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import statistics
import subprocess
import sys
import time

import checks

# what the console script generated from pyproject.toml runs
SCRIPT = "import sys; from scatcalc.cli import main; sys.exit(main())"
TAIL_PERCENTILE = 90
WITH_CLI = True
CALL_TIMEOUT_S = 120
PROBE_REPEATS = 5


def make_inputs(seed: int) -> dict:
    calls = [argv for _, argv in checks.README_CALLS] + [checks.KNOWN_FAULT]
    random.Random(seed).shuffle(calls)
    return {"seed": seed, "calls": calls}


def prepare(sc, inputs: dict) -> dict:
    return {}


def _env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_subprocess(src: str, args: list[str]) -> tuple[int, str, str, int]:
    clock = time.perf_counter_ns
    start = clock()
    done = subprocess.run(
        [sys.executable, *args],
        env=_env(src),
        capture_output=True,
        text=True,
        timeout=CALL_TIMEOUT_S,
    )
    return done.returncode, done.stdout, done.stderr, clock() - start


def run_round(sc, state: dict, inputs: dict) -> dict:
    src = os.path.dirname(os.path.dirname(sc.cli.__file__))
    clock = time.perf_counter_ns
    problems = []
    latencies = []
    failed = decided = 0
    steps = []
    for argv in inputs["calls"]:
        code, out, err, ns = run_subprocess(src, ["-c", SCRIPT, *argv])
        steps.append(ns)
        if argv == checks.KNOWN_FAULT:
            if not checks.known_fault_mended(code, out, err):
                failed += 1
                continue
        else:
            problems += checks.cli_answer(argv, code, out, err)
            if argv[0] == "compare" and code in (0, 1):
                decided += 1
        latencies.append(ns)

    in_process = {}
    for sub, argv in checks.README_CALLS:
        code, out, err, ns = _call_main(sc.cli.main, argv)
        steps.append(ns)
        problems += checks.cli_answer(argv, code, out, err)
        in_process.setdefault(sub, []).append(ns / 1e6)
    warm_start = clock()
    for _, argv in checks.README_CALLS:
        code, out, err, _ = _call_main(sc.cli.main, argv)
        problems += checks.cli_answer(argv, code, out, err)
    warm_ns = clock() - warm_start
    steps.append(warm_ns)

    calls = len(inputs["calls"])
    return {
        "op_ns": latencies,
        "warm_ns": [warm_ns],
        "warm_ops_per_pass": len(checks.README_CALLS),
        "steps_ns": steps,
        "decided": decided,
        "attempted": calls + 2 * len(checks.README_CALLS),
        "failed": failed,
        "verdicts": None,
        "problems": problems,
        "main_ms": in_process,
        "live": {},
    }


def _call_main(main, argv: list[str]) -> tuple[int, str, str, int]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter_ns()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue(), time.perf_counter_ns() - start


def check(sc, state: dict, live: dict, inputs: dict, first, fresh) -> list[str]:
    # every answer is checked as it arrives, in run_round
    return []


def layer_probe(sc, rounds: list[dict], scaled) -> dict[str, float]:
    """The floor under every call: interpreter start, then the import;
    and ``cli.main`` per subcommand, cold, in this process.  ``scaled``
    runs a measurement and returns it with its reference-speed factor."""
    src = os.path.dirname(os.path.dirname(sc.cli.__file__))
    probes = {"cli.interpreter_ms": "pass", "cli.import_ms": "import scatcalc.cli"}
    out = {}
    for name, code in probes.items():
        times, factor = scaled(
            lambda: [run_subprocess(src, ["-c", code])[3] for _ in range(PROBE_REPEATS)]
        )
        out[name] = statistics.median(times) * factor / 1e6
    for sub, _ in checks.README_CALLS:
        out[f"cli.main.{sub}_ms"] = statistics.median(
            ms for r in rounds for ms in r["main_ms"][sub]
        )
    return out
