"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import random
import time

import pytest

from scatcalc.cli import main as cli_main
from scatcalc.compare import Engine, Outcome, le_compact
from scatcalc.generators import (
    centered_set,
    equivalence_classes,
    generator_raw,
    generator_set,
    hasse,
    six_generators,
)
from scatcalc.oracle import FiniteFn, brute_force_le, image_formula_le, term_of
from scatcalc.ordinal import Ordinal, double, from_int, parse_ordinal as po, succ
from scatcalc.rank import cb_type, lex_le
from scatcalc.rewrite import normalize
from scatcalc.term import (
    EMPTY,
    Glue,
    MaxFn,
    MinFn,
    ONE,
    Omega,
    PglSet,
    Term,
    format_term,
    parse_term,
)

from conftest import random_term


class Timer:
    def __init__(self, limit: float) -> None:
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def report(n: int, label: str, timer: Timer) -> None:
    print(f"ACCEPTANCE {n} ({label}): PASS in {timer.elapsed:.3f}s (limit {timer.limit}s)")
    assert timer.elapsed < timer.limit, f"criterion {n} exceeded {timer.limit}s"


def test_criterion_1_generator_base_case(capsys):
    with Timer(0.1) as t:
        code = cli_main(["generators", "1", "--raw"])
        out = capsys.readouterr().out
    assert code == 0
    assert out.strip().splitlines() == ["one", "omega(one)"]
    with capsys.disabled():
        report(1, "generator base case", t)


def test_criterion_2_centered_level_2(capsys):
    with Timer(1.0) as t:
        cs = centered_set(from_int(2))
        classes, undecided = equivalence_classes(cs.raw, Engine())
    assert len(classes) == 3
    rank2 = [rep for rep, _ in classes if cb_type(rep).rank == from_int(2)]
    assert len(rank2) == 2
    assert not undecided
    with capsys.disabled():
        report(2, "two centered classes above rank 1", t)


@pytest.mark.parametrize("lam_text", ["w", "w*2"])
def test_criterion_3_hasse_at_successor_of_limit(lam_text, capsys):
    lam = po(lam_text)
    lam1 = succ(lam)
    engine = Engine()
    with Timer(5.0) as t:
        gens = generator_set(lam1)
        six = six_generators(lam)
        pool = gens.raw + [x for x in six if x not in gens.raw]
        classes, undecided = equivalence_classes(pool, engine)
        assert len(classes) == 6
        assert not undecided

        # no Unknown verdicts among the six canonical generators
        for a, b in itertools.permutations(six, 2):
            assert engine.compare(a, b).outcome is not Outcome.UNKNOWN

        edges = hasse(six, engine)
        key = {normalize(x, engine): name for x, name in zip(six, "LVPWXM")}
        # L = max atom, V = min atom, P = pointed max, W = omega'd min,
        # X = the wedge, M = max one level up
        named = {(key[normalize(a, engine)], key[normalize(b, engine)]) for a, b in edges}
        assert named == {
            ("L", "V"),
            ("V", "P"),
            ("V", "W"),
            ("P", "X"),
            ("W", "X"),
            ("X", "M"),
        }
        # the incomparable middle pair, explicitly
        pgl_max, omega_min = six[2], six[3]
        assert engine.compare(pgl_max, omega_min).outcome is Outcome.NOT_LE
        assert engine.compare(omega_min, pgl_max).outcome is Outcome.NOT_LE
    with capsys.disabled():
        report(3, f"six-generator diagram at {lam_text}+1", t)


@pytest.mark.parametrize("lam_text", ["1", "w"])
def test_criterion_4_strict_chain(lam_text, capsys):
    lam = po(lam_text)
    v = MinFn(succ(lam))
    mix = Glue([MinFn(succ(lam)), MaxFn(lam)])
    pgl_max = PglSet([MaxFn(lam)])
    engine = Engine()
    with Timer(1.0) as t:
        assert engine.compare(v, mix).outcome is Outcome.LE
        assert engine.compare(mix, pgl_max).outcome is Outcome.LE
        assert engine.compare(mix, v).outcome is Outcome.NOT_LE
        assert engine.compare(pgl_max, mix).outcome is Outcome.NOT_LE
    with capsys.disabled():
        report(4, f"strict chain at {lam_text}", t)


def test_criterion_5_compact_fragment(capsys):
    rng = random.Random(5)

    def rand_alpha() -> Ordinal:
        terms = []
        c2 = rng.randint(0, 2)
        c1 = rng.randint(0, 5)
        if c2:
            terms.append((2, c2))
        if c1:
            terms.append((1, c1))
        return Ordinal(tuple(terms), rng.randint(0, 5))

    engine = Engine()
    with Timer(2.0) as t:
        for _ in range(1000):
            a, b = rand_alpha(), rand_alpha()
            m, n = rng.randint(1, 9), rng.randint(1, 9)
            f = Glue([MinFn(succ(a))] * m)
            g = Glue([MinFn(succ(b))] * n)
            expected = (succ(a).terms, succ(a).finite, m) <= (
                succ(b).terms,
                succ(b).finite,
                n,
            )
            assert le_compact(f, g) == expected
            verdict = engine.compare(f, g).outcome
            if expected:
                assert verdict is Outcome.LE
            else:
                assert verdict is not Outcome.LE
    with capsys.disabled():
        report(5, "compact fragment, 1000 pairs", t)


def test_criterion_6_oracle_equivalence(capsys):
    fns = [
        FiniteFn(a, b, values)
        for a in range(1, 5)
        for b in range(1, 5)
        for values in itertools.product(range(b), repeat=a)
    ]
    engine = Engine()
    with Timer(10.0) as t:
        for f in fns:
            for g in fns:
                bf = brute_force_le(f, g)
                assert bf == image_formula_le(f, g)
                v = engine.compare(term_of(f), term_of(g))
                assert v.outcome is not Outcome.UNKNOWN
                assert (v.outcome is Outcome.LE) == bf
    with capsys.disabled():
        report(6, f"oracle equivalence over {len(fns)}^2 pairs", t)


def test_criterion_7_antichain(capsys):
    a = PglSet([PglSet([MaxFn(po("w"))])])
    b = PglSet([Omega(MinFn(po("w+1")))])
    terms = [Glue([a] * k + [b] * (3 - k)) for k in range(4)]
    engine = Engine()
    with Timer(2.0) as t:
        verdicts = 0
        for i, f in enumerate(terms):
            for j, g in enumerate(terms):
                if i == j:
                    continue
                assert engine.compare(f, g).outcome is Outcome.NOT_LE, (i, j)
                verdicts += 1
        assert verdicts == 12
    with capsys.disabled():
        report(7, "four-term antichain, 12 refutations", t)


def test_criterion_8_generator_count_level_2(capsys):
    with Timer(1.0) as t:
        raw = generator_raw(from_int(2))
        assert len(raw) == 120
    with capsys.disabled():
        report(8, "120 raw generators at level 2", t)


def test_criterion_9_property_suites(capsys):
    rng = random.Random(9)
    engine = Engine()
    with Timer(60.0) as t:
        pool = [random_term(rng, 5) for _ in range(10000)]

        # (a) normalize is idempotent and preserves the CB-type
        for f in pool:
            n = normalize(f, engine)
            assert normalize(n, engine) == n
            assert cb_type(n) == cb_type(f)

        # (b)+(c) lexicographic guard and no Le/Le/NotLe triangle
        triples = [
            (rng.choice(pool), rng.choice(pool), rng.choice(pool)) for _ in range(10000)
        ]
        for f, g, h in triples:
            fg = engine.compare(f, g).outcome
            if fg is Outcome.LE:
                assert lex_le(cb_type(f), cb_type(g))
            if fg is Outcome.LE and engine.compare(g, h).outcome is Outcome.LE:
                assert engine.compare(f, h).outcome is not Outcome.NOT_LE

        # (d) general-structure sufficiency
        for f, g, _ in triples:
            if double(cb_type(f).rank) < cb_type(g).rank:
                assert engine.compare(f, g).outcome is Outcome.LE

        # (e) a finite gluing sits below its pointed gluing
        for _ in range(1000):
            members = [
                t for t in (random_term(rng, 3) for _ in range(rng.randint(1, 3))) if t != EMPTY
            ] or [ONE]
            flat = Glue(members) if len(members) > 1 else members[0]
            assert engine.compare(flat, PglSet(members)).outcome is Outcome.LE
    with capsys.disabled():
        report(9, "property suites, zero violations", t)
