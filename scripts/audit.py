#!/usr/bin/env python3
"""Check that the engine's verdicts are transitive on sets of normal forms.

Every ordered pair of a set of distinct normal forms is classified on
one engine, and each form keeps its LE row and its LE column as int
bitsets.  A NOT_LE pair (a, c) with a form b such that a <= b and
b <= c are both LE is a violation; a sound engine has none.  An UNKNOWN
pair with such a b is one that an LE, LE chain decides; their count
measures how much the LE side leaves open.  An unordered pair of forms
that are LE both ways is an equivalent pair: two normal forms of one
class, which canonical normal forms would make one.

The sets are the first ``--forms`` distinct normal forms of each census
pool (``bench/gen.census_inputs(seed, 1500, 6000)``) and the distinct
normal forms of each centered set and of the generator sets at
``GENERATOR_LEVELS``.  Run it from any tree:

    python3 scripts/audit.py [--seeds 1 2] [--forms 400] [--centered 3 w+2]

It prints one line per set and exits 1 when a set has a violation.
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import gen  # noqa: E402  (bench/gen.py)
from scatcalc.compare import Engine, Outcome  # noqa: E402
from scatcalc.generators import centered_raw, generator_raw  # noqa: E402
from scatcalc.ordinal import parse_ordinal  # noqa: E402
from scatcalc.rewrite import normalize  # noqa: E402
from scatcalc.term import format_term, parse_term  # noqa: E402

GENERATOR_LEVELS = ("1", "2", "w+1", "w*2+1", "w^2+1")


def transitivity(forms, engine: Engine):
    """Classify every ordered pair of distinct ``forms`` on ``engine``.
    Returns the violations and the UNKNOWN pairs an LE chain decides,
    each as pairs of formatted terms, the count of each outcome, and
    the number of equivalent pairs."""
    row = [0] * len(forms)  # row[a]: bit b set when a <= b is LE
    col = [0] * len(forms)  # col[c]: bit b set when b <= c is LE
    open_pairs = {Outcome.NOT_LE: [], Outcome.UNKNOWN: []}
    counts = Counter()
    for a, f in enumerate(forms):
        for c, g in enumerate(forms):
            if a == c:
                continue
            outcome = engine.compare(f, g).outcome
            counts[outcome] += 1
            if outcome is Outcome.LE:
                row[a] |= 1 << c
                col[c] |= 1 << a
            else:
                open_pairs[outcome].append((a, c))

    def chained(pairs):
        return [(format_term(forms[a]), format_term(forms[c])) for a, c in pairs if row[a] & col[c]]

    # a <= b and b <= a: bit b of both row[a] and col[a], each pair twice
    equivalent = sum(bin(r & c).count("1") for r, c in zip(row, col)) // 2
    return chained(open_pairs[Outcome.NOT_LE]), chained(open_pairs[Outcome.UNKNOWN]), counts, equivalent


def census_forms(seed: int, n: int, engine: Engine) -> list:
    """The first ``n`` distinct normal forms of the census pool of ``seed``."""
    pool = gen.census_inputs(seed, 1500, 6000)["pool_text"]
    return list(dict.fromkeys(normalize(parse_term(text), engine) for text in pool))[:n]


def level_forms(raw, level: str, engine: Engine) -> list:
    """The distinct normal forms of the set ``raw`` builds at ``level``."""
    return list(dict.fromkeys(normalize(t, engine) for t in raw(parse_ordinal(level))))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="*", default=[1, 2, 3, 4, 5])
    parser.add_argument("--forms", type=int, default=400, help="census forms per seed")
    parser.add_argument("--centered", nargs="*", default=["3", "w+2"], help="centered set levels")
    args = parser.parse_args()

    sets = (
        [("census", seed) for seed in args.seeds]
        + [("centered", level) for level in args.centered]
        + [("generators", level) for level in GENERATOR_LEVELS]
    )
    failed = False
    for kind, arg in sets:
        engine = Engine()
        if kind == "census":
            forms = census_forms(arg, args.forms, engine)
        else:
            forms = level_forms(centered_raw if kind == "centered" else generator_raw, arg, engine)
        violations, chained, counts, equivalent = transitivity(forms, engine)
        print(
            f"{kind} {arg}: {len(forms)} forms, {counts[Outcome.LE]} LE, {counts[Outcome.NOT_LE]} NOT_LE, "
            f"{counts[Outcome.UNKNOWN]} UNKNOWN; {len(violations)} violations, "
            f"{len(chained)} UNKNOWN pairs an LE chain decides, {equivalent} equivalent pairs",
            flush=True,
        )
        for f, g in violations:
            print(f"  violation: {f} NOT_LE {g}")
        failed = failed or bool(violations)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
