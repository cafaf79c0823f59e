import pytest

from scatcalc.compare import Engine, Outcome
from scatcalc.generators import (
    FeasibilityError,
    UndecidedPairError,
    centered_raw,
    centered_set,
    equivalence_classes,
    generator_raw,
    generator_set,
    hasse,
    six_generators,
)
from scatcalc.ordinal import from_int, parse_ordinal as po
from scatcalc.rank import cb_type
from scatcalc.rewrite import normalize
from scatcalc.term import (
    Glue,
    MaxFn,
    MinFn,
    ONE,
    Omega,
    PglSet,
    Wedge,
    format_term,
    parse_term,
)


def test_generator_base_case():
    assert generator_raw(from_int(1)) == [ONE, Omega(ONE)]


def test_generator_rederivation_from_clauses():
    # the base case is not special-cased: the inductive clause with an
    # empty previous generator set yields no wedges
    assert generator_raw(from_int(0)) == []
    assert centered_raw(from_int(1)) == [ONE]
    assert generator_raw(from_int(1)) == [ONE, Omega(ONE)]


def test_limit_level_generators():
    assert generator_raw(po("w")) == [MaxFn(po("w"))]
    assert generator_raw(po("w^2")) == [MaxFn(po("w^2"))]


def test_centered_examples():
    assert centered_raw(from_int(1)) == [ONE]
    assert centered_raw(po("w+1")) == [MinFn(po("w+1")), PglSet([MaxFn(po("w"))])]
    raw2 = centered_raw(from_int(2))
    assert len(raw2) == 4
    assert set(raw2) == {
        ONE,
        PglSet([ONE]),
        PglSet([Omega(ONE)]),
        PglSet([ONE, Omega(ONE)]),
    }


def test_centered_level2_classes():
    cs = centered_set(from_int(2))
    classes, undecided = equivalence_classes(cs.raw, Engine())
    assert len(classes) == 3
    assert not undecided
    buckets = {frozenset(map(format_term, members)) for _, members in classes}
    assert buckets == {
        frozenset({"one"}),
        frozenset({"pgl{one}"}),
        frozenset({"pgl{omega(one)}", "pgl{one, omega(one)}"}),
    }


def test_generator_level2_count():
    raw = generator_raw(from_int(2))
    # independent combinatorial count from the recursion:
    # |C2| + |omega C2| + (vertical families over P+(G1)) * (diagonals in P(C2))
    c2 = 4
    g1 = 2
    vertical_subsets = 2**g1 - 1
    families = 2**vertical_subsets - 1
    diagonals = 2**c2
    assert len(raw) == c2 + c2 + families * diagonals == 120


def test_monotone_nesting():
    assert set(centered_raw(from_int(2))) <= set(centered_raw(from_int(3)))
    assert set(centered_raw(po("w+1"))) <= set(centered_raw(po("w+2")))
    assert set(generator_raw(from_int(1))) <= set(generator_raw(from_int(2)))


@pytest.mark.parametrize("level", ["1", "2", "w+1", "w*2+1"])
def test_rank_bounds(level):
    alpha = po(level)
    lam = alpha.__class__(alpha.terms, 0)
    for t in generator_raw(alpha):
        r = cb_type(t).rank
        assert lam <= r <= alpha, format_term(t)


def test_wedge_bound_inequalities():
    engine = Engine()
    for level in (from_int(2), po("w+1")):
        wedges = [t for t in generator_raw(level) if isinstance(t, Wedge)]
        assert wedges
        for w in wedges:
            for fam in w.verticals:
                assert engine.compare(PglSet(fam), w).outcome is Outcome.LE
            if w.diagonal:
                diag = Glue(w.diagonal) if len(w.diagonal) > 1 else w.diagonal[0]
                assert engine.compare(Omega(diag), w).outcome is Outcome.LE
            parts = [PglSet(fam) for fam in w.verticals]
            if w.diagonal:
                diag = Glue(w.diagonal) if len(w.diagonal) > 1 else w.diagonal[0]
                parts.append(Omega(diag))
            upper = Glue(parts) if len(parts) > 1 else parts[0]
            assert engine.compare(w, upper).outcome is Outcome.LE


def test_feasibility_bound():
    with pytest.raises(FeasibilityError):
        generator_raw(from_int(3))
    with pytest.raises(FeasibilityError):
        generator_raw(po("w+2"))
    with pytest.raises(FeasibilityError):
        centered_raw(from_int(2), max_raw=2)


def test_refusal_builds_no_pool(monkeypatch):
    # the wedge count is known before any power set is built, so the
    # refusal at w+2 must not build one
    from scatcalc import generators

    prev_gen = generator_raw(po("w+1"))
    centered = centered_raw(po("w+2"))

    def fail(items):
        raise AssertionError("power set built for a refused level")

    monkeypatch.setattr(generators, "generator_raw", lambda alpha, max_raw: prev_gen)
    monkeypatch.setattr(generators, "centered_raw", lambda alpha, max_raw: centered)
    monkeypatch.setattr(generators, "_power_set", fail)
    monkeypatch.setattr(generators, "_power_set_nonempty", fail)
    with pytest.raises(FeasibilityError, match="exceeds the raw bound"):
        generator_raw(po("w+2"))


def test_feasibility_bound_is_exact():
    assert len(generator_raw(from_int(2), max_raw=120)) == 120
    with pytest.raises(FeasibilityError):
        generator_raw(from_int(2), max_raw=119)


def test_six_generators_dedupe_and_classes():
    lam = po("w")
    gens = generator_set(po("w+1"))
    pool = gens.raw + [t for t in six_generators(lam) if t not in gens.raw]
    classes, undecided = equivalence_classes(pool, Engine())
    assert len(classes) == 6
    assert not undecided


def test_hasse_examples():
    engine = Engine()
    assert hasse([parse_term("0*empty")], engine) == []
    edges = hasse([ONE, Omega(ONE)], engine)
    assert edges == [(ONE, Omega(ONE))]


def test_hasse_merges_equivalent_terms():
    engine = Engine()
    edges = hasse([ONE, Glue([ONE, Omega(ONE)]), Omega(ONE)], engine)
    assert len(edges) == 1
    a, b = edges[0]
    assert normalize(a, engine) == ONE and normalize(b, engine) == Omega(ONE)


def test_hasse_rejects_undecided():
    f = parse_term("max(2)")
    g = parse_term("min(3)")
    engine = Engine()
    assert engine.compare(f, g).outcome is Outcome.UNKNOWN
    with pytest.raises(UndecidedPairError) as exc:
        hasse([f, g], engine)
    assert exc.value.pair in ((f, g), (g, f))


def test_six_generators_requires_limit_or_one():
    with pytest.raises(ValueError):
        six_generators(from_int(2))
    assert len(six_generators(from_int(1))) == 6
