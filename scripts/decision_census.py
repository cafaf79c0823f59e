#!/usr/bin/env python3
"""Measure how much of the order the engine decides.

Two populations: all ordered pairs from enumerated generator sets
(levels 1, 2 and the successors of small limits), and seeded random
term pairs.  The unknown rate on generator pairs is a reported metric,
not a contract; on the enumerated levels below the first double
successor it is expected to be zero.
"""

import argparse
import collections
import itertools
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from scatcalc.compare import Engine, Outcome
from scatcalc.generators import generator_raw
from scatcalc.ordinal import parse_ordinal
from scatcalc.sample import random_term


def census(pairs, engine: Engine) -> collections.Counter:
    counts = collections.Counter()
    for a, b in pairs:
        counts[engine.compare(a, b).outcome] += 1
    return counts


def show(label: str, counts: collections.Counter, elapsed: float) -> None:
    total = sum(counts.values()) or 1
    le = counts[Outcome.LE]
    nle = counts[Outcome.NOT_LE]
    unk = counts[Outcome.UNKNOWN]
    print(
        f"{label:28s} pairs={total:7d}  le={le:6d}  not_le={nle:6d}  "
        f"unknown={unk:5d} ({unk / total:.2%})  [{elapsed:.1f}s]"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--random-pairs", type=int, default=20000)
    parser.add_argument("--depth", type=int, default=5, help="random term depth")
    args = parser.parse_args()
    engine = Engine()

    for level in ("1", "2", "w+1", "w*2+1"):
        raw = generator_raw(parse_ordinal(level))
        t0 = time.perf_counter()
        counts = census(itertools.permutations(raw, 2), engine)
        show(f"generators {level}", counts, time.perf_counter() - t0)

    rng = random.Random(args.seed)
    pool = [random_term(rng, args.depth) for _ in range(2000)]
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(args.random_pairs)]
    t0 = time.perf_counter()
    counts = census(pairs, engine)
    show(f"random depth<={args.depth}", counts, time.perf_counter() - t0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
