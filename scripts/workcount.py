#!/usr/bin/env python3
"""Count the work of one cold census round.

For each seed, the pool and pairs of ``bench/gen.census_inputs(seed,
pool, pairs)`` are built, the pool is parsed, and one cold round (every
pair once, in order) runs on a fresh engine under ``sys.setprofile``.
One line per seed gives:

* ``calls``: the round's Python call events (``call`` events of the
  profiler: function calls and generator resumptions, not C calls);
* ``asked``: the ``Engine.compare`` calls among them: every question,
  the round's pairs and those the rules and the rewrite rules ask;
* ``decide``: the ``Engine._decide`` runs among them;
* ``fix``: the ``rewrite._fix`` calls among them;
* ``built``: the term nodes the round built, counted as the call
  events of ``term``'s ``_measure`` methods, which run once per new
  node;
* ``nf`` and ``memo``: the engine's normal-form cache and memo entries
  after the round;
* ``renormalize``: the call events of the same round on a second fresh
  engine that starts with a copy of the first engine's memo but no
  normal forms, so it only normalizes again.
* ``blocked``: the queries the first round answered with a cycle or
  open-query-bound blocker (``engine._local.blocked``), whose
  derivations none of the counted caches keeps.

Run it from any tree: ``python3 scripts/workcount.py`` (census seeds
1-5 with 1,500 terms and 6,000 pairs each).  The counts do not depend
on the machine.  The seeds run in one process, so a later seed finds
the CB-types that earlier ones built (``rank`` keeps one per type),
and its ``calls`` can read a few hundred lower than when it runs alone.
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import gen  # noqa: E402  (bench/gen.py)
from scatcalc import rewrite, term  # noqa: E402
from scatcalc.compare import Engine  # noqa: E402
from scatcalc.term import parse_term  # noqa: E402


# the code of every node's _measure, which runs once when the node is built
MEASURES = {
    cls._measure.__code__
    for cls in vars(term).values()
    if isinstance(cls, type) and issubclass(cls, term.Term)
}


def profiled_round(engine: Engine, pairs) -> Counter:
    """The call events of comparing every pair on ``engine``, by code object."""
    calls: Counter = Counter()

    def count(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1

    sys.setprofile(count)
    try:
        for f, g in pairs:
            engine.compare(f, g)
    finally:
        sys.setprofile(None)
    return calls


def work(seed: int, pool_size: int, n_pairs: int) -> dict[str, int]:
    inputs = gen.census_inputs(seed, pool_size, n_pairs)
    pool = [parse_term(text) for text in inputs["pool_text"]]
    pairs = [(pool[i], pool[j]) for i, j in inputs["pairs"]]
    engine = Engine()
    calls = profiled_round(engine, pairs)
    blocked = engine._local.blocked
    again = Engine()
    again._memo.update(engine._memo)
    return {
        "calls": sum(calls.values()),
        "asked": calls[Engine.compare.__code__],
        "decide": calls[Engine._decide.__code__],
        "fix": calls[rewrite._fix.__code__],
        "built": sum(calls[code] for code in MEASURES),
        "nf": len(engine._nf),
        "memo": len(engine._memo),
        "renormalize": sum(profiled_round(again, pairs).values()),
        "blocked": blocked,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="*", default=[1, 2, 3, 4, 5])
    parser.add_argument("--pool", type=int, default=1500, help="census pool size")
    parser.add_argument("--pairs", type=int, default=6000, help="census pairs per seed")
    args = parser.parse_args()
    for seed in args.seeds:
        counts = work(seed, args.pool, args.pairs)
        print(f"census {seed}: " + "  ".join(f"{k} {v}" for k, v in counts.items()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
