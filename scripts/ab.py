#!/usr/bin/env python3
"""Alternating A/B runs of one benchmark workload: a base revision
against the working tree.

    python3 scripts/ab.py --base HEAD --workload census-random --seeds 201-211

The base revision is extracted with ``git archive <rev> | tar -x`` into
a temporary directory (the repository's ``.git`` is only read).  For
each seed, ``bench/run.py --workload W --seed S --seconds N --trace 0``
runs once from each tree, one run at a time; the tree that runs first
alternates from seed to seed.  The working tree's ``src`` and ``bench``
run from a copy without ``__pycache__`` directories, and every run sees
``PYTHONDONTWRITEBYTECODE=1``.  So neither tree reads bytecode of its
own: each process compiles the program from source, as the benchmark
does on a fresh checkout, and reads the standard library's bytecode as
usual.  The script prints each pair's end-to-end metrics, then per
metric: the base median and quartiles, the change
median, the change of the medians, the median of the per-pair changes,
that median again over the pairs where the change ran first and over
those where the base ran first (an order effect shows as a gap between
the two), and the pairs the change won.  ``clear`` marks a metric
whose median moved the better way by more than the base runs'
interquartile range.  Metric names and directions come from
``BENCHMARK.json``.  The temporary directory is removed on exit, on an
error and on SIGTERM.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Row:
    metric: str
    base: float
    base_q1: float
    base_q3: float
    change: float
    median_change: float  # relative change of the medians
    pair_change: float  # median of the per-pair relative changes
    change_first: float  # ... over the pairs where the change ran first
    base_first: float  # ... over the pairs where the base ran first
    wins: int
    pairs: int
    clear: bool


def _relative(base: float, change: float) -> float:
    return (change - base) / base if base else 0.0


def change_runs_first(i: int) -> bool:
    """Whether the change runs first in pair ``i`` (from 0): the order
    alternates, the base first in pair 0."""
    return i % 2 == 1


def _median_or_nan(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> list[Row]:
    """One row per metric of ``better`` (name -> "higher" or "lower")
    over ``pairs`` of (base metrics, change metrics), each a dict from
    metric name to value, in run order (see ``change_runs_first``)."""
    rows = []
    first = [change_runs_first(i) for i in range(len(pairs))]
    for name, direction in better.items():
        base = [b[name] for b, _ in pairs]
        change = [c[name] for _, c in pairs]
        sign = 1 if direction == "higher" else -1
        b_med, c_med = statistics.median(base), statistics.median(change)
        q1, _, q3 = statistics.quantiles(base, n=4) if len(base) > 1 else base * 3
        per_pair = [_relative(b, c) for b, c in zip(base, change)]
        rows.append(Row(
            metric=name,
            base=b_med,
            base_q1=q1,
            base_q3=q3,
            change=c_med,
            median_change=_relative(b_med, c_med),
            pair_change=statistics.median(per_pair),
            change_first=_median_or_nan([r for r, f in zip(per_pair, first) if f]),
            base_first=_median_or_nan([r for r, f in zip(per_pair, first) if not f]),
            wins=sum(sign * (c - b) > 0 for b, c in zip(base, change)),
            pairs=len(pairs),
            clear=sign * (c_med - b_med) > q3 - q1,
        ))
    return rows


def format_rows(rows: list[Row]) -> str:
    lines = [f"{'metric':18s} {'base median':>12s} {'base q1-q3':>23s} {'change median':>13s}"
             f" {'chg median':>10s} {'chg pair':>9s} {'chg first':>9s} {'base first':>10s}"
             f" {'wins':>6s}  clear"]
    for r in rows:
        quartiles = f"{r.base_q1:.5g}-{r.base_q3:.5g}"
        lines.append(
            f"{r.metric:18s} {r.base:12.6g} {quartiles:>23s} {r.change:13.6g}"
            f" {r.median_change:+10.1%} {r.pair_change:+9.1%}"
            f" {r.change_first:+9.1%} {r.base_first:+10.1%}"
            f" {r.wins:>3d}/{r.pairs:<2d}  {'yes' if r.clear else 'no'}"
        )
    return "\n".join(lines)


def parse_seeds(text: str) -> list[int]:
    """``"201-205"`` or ``"1,4,9"`` (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def extract(rev: str, into: Path) -> None:
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")


def copy_tree(into: Path) -> None:
    """The working tree's program and benchmark, without bytecode."""
    for part in ("src", "bench"):
        shutil.copytree(ROOT / part, into / part, ignore=shutil.ignore_patterns("__pycache__"))


def child_env() -> dict:
    """The environment of one benchmark run: it writes no bytecode, so
    the trees stay without it."""
    return {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}


def run_bench(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{tree}: seed {seed} ran incorrectly (exit {done.returncode})")
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        ok = result["correct"] and not result["failed"]
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
    except (IndexError, ValueError, TypeError, KeyError, AttributeError):
        last = repr(lines[-1][:80]) if lines else "nothing"
        raise SystemExit(f"{tree}: seed {seed} printed no result line (last line: {last})")
    if not ok:
        raise SystemExit(f"{tree}: seed {seed} ran incorrectly (exit 0)")
    return metrics


def _exit_on_sigterm(signum, frame) -> None:
    # SystemExit unwinds through main's finally, which a bare SIGTERM skips
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="the base revision (default HEAD)")
    parser.add_argument("--workload", default="census-random")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("201-211"),
                        help="one pair per seed, e.g. 201-211 or 1,3,5 (default 201-211)")
    parser.add_argument("--seconds", type=int, default=10)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    scratch = Path(tempfile.mkdtemp(prefix="scatcalc-ab-"))
    base, change = scratch / "base", scratch / "change"
    try:
        base.mkdir()
        extract(args.base, base)
        copy_tree(change)
        pairs = []
        for i, seed in enumerate(args.seeds):
            order = [("base", base), ("change", change)]
            if change_runs_first(i):
                order.reverse()
            got = {label: run_bench(tree, args.workload, seed, args.seconds) for label, tree in order}
            pairs.append((got["base"], got["change"]))
            print(f"pair {i + 1} seed {seed} ({order[0][0]} first)")
            for name in better:
                b, c = got["base"][name], got["change"][name]
                print(f"  {name:18s} {b:12.6g} -> {c:12.6g} {_relative(b, c):+8.1%}")
            sys.stdout.flush()
        print(f"\n{args.workload}: {args.base} -> working tree, {len(pairs)} pairs")
        print(format_rows(summarize(pairs, better)))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
