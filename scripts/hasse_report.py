#!/usr/bin/env python3
"""Build the level lambda+1 generator picture for several limits.

For each requested level the script enumerates the raw generator set,
joins it with the canonical six-element generating set, deduplicates up
to bidirectional reducibility, and prints the class census plus the
covering relation (and optionally DOT).  The expected outcome at every
limit (and at 1) is the same six-class diamond.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from scatcalc.cli import render_dot
from scatcalc.compare import Engine
from scatcalc.generators import equivalence_classes, generator_set, hasse, six_generators
from scatcalc.ordinal import parse_ordinal, succ
from scatcalc.term import format_term


def report(lam_text: str, dot: bool) -> None:
    lam = parse_ordinal(lam_text)
    level = succ(lam)
    gens = generator_set(level)
    six = six_generators(lam)
    pool = gens.raw + [t for t in six if t not in gens.raw]
    engine = Engine()
    classes, undecided = equivalence_classes(pool, engine)
    print(f"== level {level} ==")
    print(f"raw generators: {len(gens.raw)}, with six-set: {len(pool)} terms")
    print(f"classes: {len(classes)}, undecided pairs: {len(undecided)}")
    for rep, members in classes:
        names = ", ".join(sorted(format_term(m) for m in members))
        print(f"  [{format_term(rep)}]  <=  {{{names}}}")
    edges = hasse([rep for rep, _ in classes], engine)
    print("covering relation:")
    for a, b in edges:
        print(f"  {format_term(a)} -> {format_term(b)}")
    if dot:
        print(render_dot([rep for rep, _ in classes], edges, engine))
    print()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "levels", nargs="*", default=["1", "w", "w*2", "w^2"], help="limit levels"
    )
    parser.add_argument("--dot", action="store_true")
    args = parser.parse_args()
    for lam in args.levels:
        report(lam, args.dot)
    return 0


if __name__ == "__main__":
    sys.exit(main())
