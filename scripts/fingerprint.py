#!/usr/bin/env python3
"""Print one sha256 per section of the engine's observable output.

Two trees that print the same lines give the same verdicts, trace text,
normal forms and single rule steps on these inputs.  Sections:

* ``census <seed> parse``: every pool text of
  ``bench/gen.census_inputs(seed, pool, pairs)`` and three seeded
  mutations of it (one character deleted, one character of the grammar
  inserted, the text cut short), each as ``format_term`` of its parse
  or as the ``error: <message>`` line the command line prints;
* ``census <seed> outcomes``: the cold outcome of every pair of
  ``bench/gen.census_inputs(seed, pool, pairs)`` on a fresh engine;
* ``census <seed> trace-now``: the same pairs on another fresh engine,
  each verdict's trace rendered right after it is returned;
* ``census <seed> trace-after``: on a third fresh engine, every trace
  rendered after all the verdicts;
* ``census <seed> normal-forms``: the pool normalized on a fresh engine;
* ``census <seed> rule-steps``: ``apply_rule`` of every rule name on
  every pool term (the stepped term, or ``None``) on a fresh engine;
* ``census <seed> cb-types``: the CB-type of every pool term and of its
  normal form (normalized on a fresh engine);
* ``levels <set> <order> classes|undecided|hasse``: for each set of
  ``LEVEL_SETS`` (the generator sets, the six generators and the
  centered sets at their levels), in the given and in reversed item
  order on a fresh engine per order: every class of
  ``equivalence_classes`` as its representative and members, its
  undecided pairs, and the ``hasse`` edges or the pair named by
  ``UndecidedPairError``;
* ``multiplicity outcomes|traces|normal-forms``: every ordered pair of
  ``multiplicity_terms()``, gluings that repeat their summands, on one
  fresh engine: each outcome, each trace rendered after all the
  verdicts, and each term's normal form;
* ``golden <name>``: the rows ``tests/test_golden.py`` compares with
  ``tests/data/golden_verdicts.txt``, built by ``tests/golden.py``.

Run it from any tree: ``python3 scripts/fingerprint.py`` (census seeds
1-5 with 1,500 terms and 6,000 pairs each, every levels set, the
multiplicity section, every golden section).
"""

import argparse
import hashlib
import itertools
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "tests"))

import gen  # noqa: E402  (bench/gen.py)
import golden  # noqa: E402  (tests/golden.py, which needs no pytest)
from scatcalc.compare import Engine  # noqa: E402
from scatcalc.generators import (  # noqa: E402
    UndecidedPairError,
    centered_raw,
    equivalence_classes,
    generator_raw,
    hasse,
    six_generators,
)
from scatcalc.ordinal import parse_ordinal  # noqa: E402
from scatcalc.rank import cb_type  # noqa: E402
from scatcalc.rewrite import apply_rule, normalize, rule_names  # noqa: E402
from scatcalc.term import (  # noqa: E402
    Glue,
    TermTooLargeError,
    format_term,
    glue_of,
    parse_term,
)


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def trace_lines(verdict) -> list[str]:
    return [verdict.outcome.name] + [f"  {rule}: {text}" for rule, text in verdict.trace]


# the characters of the term grammar, its words and punctuation
GRAMMAR_CHARS = "(){}|,*^+ 0123456789abdegilmnopqrtuwxy"


def with_mutations(text: str, rng: random.Random):
    """``text``, then three mutations of it drawn from ``rng``."""
    yield text
    i = rng.randrange(len(text))
    yield text[:i] + text[i + 1 :]
    i = rng.randrange(len(text) + 1)
    yield text[:i] + rng.choice(GRAMMAR_CHARS) + text[i:]
    yield text[: rng.randrange(len(text))]


def parse_line(text: str) -> str:
    try:
        return format_term(parse_term(text))
    except (ValueError, TermTooLargeError) as exc:
        return f"error: {exc}"


def census_sections(seed: int, pool_size: int, n_pairs: int):
    inputs = gen.census_inputs(seed, pool_size, n_pairs)
    rng = random.Random(seed)
    texts = (m for text in inputs["pool_text"] for m in with_mutations(text, rng))
    yield "parse", digest(map(parse_line, texts))

    pool = [parse_term(text) for text in inputs["pool_text"]]
    pairs = [(pool[i], pool[j]) for i, j in inputs["pairs"]]

    engine = Engine()
    yield "outcomes", digest(engine.compare(f, g).outcome.name for f, g in pairs)

    engine = Engine()
    now = []
    for f, g in pairs:
        now += trace_lines(engine.compare(f, g))
    yield "trace-now", digest(now)

    engine = Engine()
    verdicts = [engine.compare(f, g) for f, g in pairs]
    yield "trace-after", digest(line for v in verdicts for line in trace_lines(v))

    engine = Engine()
    yield "normal-forms", digest(format_term(normalize(t, engine)) for t in pool)

    engine = Engine()
    steps = (apply_rule(t, name, engine) for t in pool for name in rule_names())
    yield "rule-steps", digest("None" if s is None else format_term(s) for s in steps)

    engine = Engine()
    yield "cb-types", digest(str(cb_type(u)) for t in pool for u in (t, normalize(t, engine)))


BUILDERS = {"generators": generator_raw, "six": six_generators, "centered": centered_raw}
LEVEL_SETS = (
    [f"generators {level}" for level in ("1", "2", "w+1", "w*2+1", "w^2+1")]
    + [f"six {level}" for level in ("1", "w", "w*2", "w^2")]
    + [f"centered {level}" for level in ("1", "2", "3", "w+1", "w+2")]
)


def level_sections(name: str):
    kind, level = name.split(" ")
    terms = BUILDERS[kind](parse_ordinal(level))
    for order, items in (("given", terms), ("reversed", terms[::-1])):
        engine = Engine()
        classes, undecided = equivalence_classes(items, engine)
        yield f"{order} classes", digest(
            f"{format_term(rep)}: {', '.join(map(format_term, members))}" for rep, members in classes
        )
        yield f"{order} undecided", digest(f"{format_term(a)} | {format_term(b)}" for a, b in undecided)
        try:
            edges = [f"{format_term(a)} -> {format_term(b)}" for a, b in hasse(items, engine)]
        except UndecidedPairError as exc:
            edges = ["undecided: " + " | ".join(map(format_term, exc.pair))]
        yield f"{order} hasse", digest(edges)


def multiplicity_terms() -> list:
    """Gluings of one to four copies of each summand, and two seeded
    gluings of one to four copies each of every two summands, over the
    centered set at 2 and the six generators at 1."""
    summands = centered_raw(parse_ordinal("2")) + six_generators(parse_ordinal("1"))
    terms = [glue_of((s,) * k) for s in summands for k in range(1, 5)]
    rng = random.Random(0)
    for a, b in itertools.combinations(summands, 2):
        for _ in range(2):
            terms.append(Glue((a,) * rng.randint(1, 4) + (b,) * rng.randint(1, 4)))
    return terms


def multiplicity_sections():
    terms = multiplicity_terms()
    engine = Engine()
    verdicts = [engine.compare(f, g) for f in terms for g in terms]
    yield "outcomes", digest(v.outcome.name for v in verdicts)
    yield "traces", digest(line for v in verdicts for line in trace_lines(v))
    yield "normal-forms", digest(format_term(normalize(t, engine)) for t in terms)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="*", default=[1, 2, 3, 4, 5])
    parser.add_argument("--pool", type=int, default=1500, help="census pool size")
    parser.add_argument("--pairs", type=int, default=6000, help="census pairs per seed")
    parser.add_argument(
        "--levels", nargs="*", default=LEVEL_SETS, choices=LEVEL_SETS,
        help="levels sets to hash (default: all)",
    )
    parser.add_argument(
        "--golden", nargs="*", default=list(golden.SECTIONS), choices=list(golden.SECTIONS),
        help="golden sections to hash (default: all)",
    )
    args = parser.parse_args()

    for seed in args.seeds:
        for name, value in census_sections(seed, args.pool, args.pairs):
            print(f"census {seed} {name}: {value}", flush=True)
    for set_name in args.levels:
        for name, value in level_sections(set_name):
            print(f"levels {set_name} {name}: {value}", flush=True)
    for name, value in multiplicity_sections():
        print(f"multiplicity {name}: {value}", flush=True)
    for name in args.golden:
        rows = golden.verdict_rows(golden.SECTIONS[name]())
        print(f"golden {name}: {digest(rows)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
