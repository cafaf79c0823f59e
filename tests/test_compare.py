import itertools
import random
import sys

import pytest
from hypothesis import given, settings

from scatcalc.compare import (
    Engine,
    EngineConfig,
    Outcome,
    compare,
    dominates,
    equivalent,
    le_compact,
)
from scatcalc.ordinal import double, parse_ordinal as po
from scatcalc.rank import cb_type, lex_le
from scatcalc.rewrite import normalize
from scatcalc.term import Glue, MinFn, ONE, Omega, PglSet, parse_term

from conftest import terms


def outcome(a, b):
    return compare(parse_term(a), parse_term(b)).outcome


def test_compare_examples():
    assert outcome("glue(3*min(2))", "glue(5*min(2))") is Outcome.LE
    assert outcome("max(w)", "min(w+1)") is Outcome.LE
    assert outcome("pgl{max(w)}", "omega(min(w+1))") is Outcome.NOT_LE
    assert outcome("omega(min(w+1))", "pgl{max(w)}") is Outcome.NOT_LE
    assert outcome("one", "0*empty") is Outcome.NOT_LE
    assert outcome("glue(4*one)", "idq") is Outcome.LE


def test_sentinel_table():
    assert outcome("idq", "idbaire") is Outcome.LE
    assert outcome("idbaire", "idq") is Outcome.NOT_LE
    assert outcome("idq", "idq") is Outcome.LE
    assert outcome("idbaire", "omega(one)") is Outcome.NOT_LE
    assert outcome("idq", "max(w^2)") is Outcome.NOT_LE
    assert outcome("max(w^2)", "idq") is Outcome.LE
    assert outcome("wedge({max(w)} | {min(w+1)})", "idbaire") is Outcome.LE


def test_axiom_instances_at_levels():
    for lam in ("1", "w", "w*2", "w^2"):
        one_up = f"min({lam}+1)" if lam != "1" else "min(2)"
        pgl_max = f"pgl{{max({lam})}}"
        mix = f"glue({one_up}, max({lam}))"
        assert outcome(f"max({lam})", one_up) is Outcome.LE  # A1
        assert outcome(pgl_max, one_up) is Outcome.NOT_LE  # A4
        assert outcome(mix, one_up) is Outcome.NOT_LE  # A5a
        assert outcome(pgl_max, mix) is Outcome.NOT_LE  # A5b
        wedge = f"wedge({{max({lam})}} | {{{one_up}}})"
        assert outcome(f"omega({pgl_max})", wedge) is Outcome.NOT_LE  # A3


def test_traces_cite_consistent_rule_families():
    cases = [
        ("glue(3*min(2))", "glue(5*min(2))"),
        ("max(w)", "min(w+1)"),
        ("pgl{max(w)}", "omega(min(w+1))"),
        ("omega(min(w+1))", "pgl{max(w)}"),
        ("glue(min(w+1), max(w))", "min(w+1)"),
        ("pgl{pgl{max(w)}}", "pgl{omega(min(w+1))}"),
    ]
    for a, b in cases:
        v = compare(parse_term(a), parse_term(b))
        assert v.trace
        rules = {rule for rule, _ in v.trace}
        if v.outcome is Outcome.LE:
            assert all(r.startswith("L-") or r == "A1" for r in rules)
        elif v.outcome is Outcome.NOT_LE:
            assert all(r.startswith("N-") or r in ("A3", "A4", "A5a", "A5b") for r in rules)


def test_unknown_reports_blockers():
    # whether the level-2 maximum fits below the level-3 minimum is
    # outside every rule; the verdict must be UNKNOWN with a blocker
    v = compare(parse_term("max(2)"), parse_term("min(3)"))
    assert v.outcome is Outcome.UNKNOWN
    assert v.trace
    assert all(rule.startswith("blocked") for rule, _ in v.trace)


def test_pgl_monotone_across_ranks():
    # memberwise Lambda_1 <= V_2 lifts through the pointed gluing, one
    # rank apart; the ray obstruction must not misfire here
    assert outcome("pgl{omega(one)}", "pgl{pgl{one}}") is Outcome.LE
    assert outcome("omega(one)", "pgl{one}") is Outcome.LE
    assert outcome("pgl{pgl{one}}", "pgl{omega(one)}") is Outcome.NOT_LE


def test_equivalent_examples():
    assert equivalent(parse_term("glue(one, omega(one))"), parse_term("omega(one)")) == "Yes"
    assert equivalent(parse_term("min(2)"), parse_term("max(1)")) == "No"


def test_dominates_examples():
    v = dominates([parse_term("one")], [parse_term("omega(one)")])
    assert v.outcome is Outcome.LE
    v = dominates([parse_term("min(w+1)")], [parse_term("one"), parse_term("max(w)")])
    assert v.outcome is Outcome.NOT_LE
    v = dominates([parse_term("max(2)")], [parse_term("min(3)")])
    assert v.trace == (("blocked:pair", "max(2) vs every target undecided"),)


def test_trace_text_is_formatted_only_when_read(monkeypatch):
    def fail(t):
        raise AssertionError("trace text formatted before it was read")

    monkeypatch.setattr(sys.modules["scatcalc.compare"], "format_term", fail)
    v = Engine().compare(parse_term("glue(pgl{max(w)}, one)"), parse_term("omega(min(w+1))"))
    monkeypatch.undo()
    assert v.outcome is Outcome.NOT_LE
    assert v.trace and all(isinstance(text, str) for _, text in v.trace)


def test_le_compact_examples():
    assert le_compact(parse_term("2*min(3)"), parse_term("1*min(4)")) is True
    assert le_compact(parse_term("2*min(3)"), parse_term("1*min(3)")) is False
    assert le_compact(parse_term("min(2)"), parse_term("min(2)")) is True


def test_compact_terms_classify_as_min_multiples():
    # every non-empty compact-domain term is equivalent to degree many
    # copies of the min atom at its rank, and the engine derives it
    for text in ("pgl{min(2), one}", "glue(min(3), pgl{pgl{one}})", "pgl{one, pgl{one}}"):
        t = parse_term(text)
        tp = cb_type(t)
        canonical = Glue([MinFn(tp.rank)] * int(tp.degree))
        assert equivalent(t, canonical) == "Yes", text


def test_le_compact_preconditions():
    with pytest.raises(ValueError):
        le_compact(parse_term("omega(one)"), parse_term("min(2)"))
    with pytest.raises(ValueError):
        le_compact(parse_term("0*empty"), parse_term("min(2)"))


def test_compare_module_is_reachable():
    import scatcalc
    import scatcalc.compare as compare_module

    assert compare_module.Engine is Engine
    assert scatcalc.compare.Engine is Engine


def test_engine_leaves_no_trace_in_the_default_engine(monkeypatch):
    import scatcalc.compare as compare_module

    default = Engine()
    monkeypatch.setattr(compare_module, "_default_engine", default)
    engine = Engine(EngineConfig(depth=3))
    engine.compare(parse_term("pgl{max(w), min(w+1)}"), parse_term("wedge({max(w)} | {min(w+1)})"))
    assert not default._memo and not default._nf
    assert engine._memo and engine._nf


def test_verdicts_do_not_depend_on_query_order():
    from scatcalc.sample import random_term

    rng = random.Random(7)
    pool = [random_term(rng, 4) for _ in range(120)]
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(400)]
    first, second = Engine(), Engine()
    forward = [first.compare(f, g).outcome for f, g in pairs]
    backward = [second.compare(f, g).outcome for f, g in reversed(pairs)]
    assert forward == backward[::-1]


def test_depth_bound_yields_unknown():
    engine = Engine(EngineConfig(depth=1))
    v = engine.compare(parse_term("glue(min(w+1), pgl{one})"), parse_term("pgl{max(w)}"))
    if v.outcome is Outcome.UNKNOWN:
        assert any(rule == "blocked:depth" for rule, _ in v.trace)


# -- invariants ---------------------------------------------------------------


@given(terms())
@settings(max_examples=150, deadline=None)
def test_reflexivity(t):
    assert compare(t, t).outcome is Outcome.LE


@given(terms())
@settings(max_examples=150, deadline=None)
def test_normalization_coherence(t):
    n = normalize(t)
    assert compare(t, n).outcome is Outcome.LE
    assert compare(n, t).outcome is Outcome.LE


@given(terms(), terms())
@settings(max_examples=200, deadline=None)
def test_nlex_guard(f, g):
    if compare(f, g).outcome is Outcome.LE:
        assert lex_le(cb_type(f), cb_type(g))


@given(terms(), terms())
@settings(max_examples=150, deadline=None)
def test_general_structure_sufficiency(f, g):
    if double(cb_type(f).rank) < cb_type(g).rank:
        assert compare(f, g).outcome is Outcome.LE


@given(terms())
@settings(max_examples=80, deadline=None)
def test_monotone_counts(g):
    for m, n in [(1, 2), (2, 3), (1, 4)]:
        f_m = Glue([g] * m)
        f_n = Glue([g] * n)
        assert compare(f_m, f_n).outcome is Outcome.LE
        assert compare(f_m, Omega(g)).outcome is Outcome.LE


def test_context_monotonicity_sampled(rng):
    """Gluing, omega and pointed gluing are monotone, so a proven
    reduction must never be refuted once both sides are wrapped in the
    same context (Unknown is acceptable, NOT_LE is a bug)."""
    from scatcalc.sample import random_term

    pool = [random_term(rng, 3) for _ in range(250)]
    checked = 0
    for _ in range(4000):
        f, g, h = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        if compare(f, g).outcome is not Outcome.LE:
            continue
        checked += 1
        assert compare(Glue([f, h]), Glue([g, h])).outcome is not Outcome.NOT_LE
        assert compare(Omega(f), Omega(g)).outcome is not Outcome.NOT_LE
        if f != parse_term("0*empty") and g != parse_term("0*empty"):
            assert compare(PglSet([f]), PglSet([g])).outcome is not Outcome.NOT_LE
    assert checked > 100


def test_no_le_le_notle_triangle_sampled(rng):
    from scatcalc.sample import random_term

    pool = [random_term(rng, 4) for _ in range(300)]
    for _ in range(2000):
        f, g, h = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        if (
            compare(f, g).outcome is Outcome.LE
            and compare(g, h).outcome is Outcome.LE
        ):
            assert compare(f, h).outcome is not Outcome.NOT_LE


def test_rank_one_fragment_complete_and_matches_formula():
    """Gluings of the two rank-1 generators compare exactly by image
    cardinality (with omega absorbing), with no Unknowns."""
    def build(a, b):
        parts = [ONE] * a + [Omega(ONE)] * b
        return Glue(parts) if len(parts) != 1 else parts[0]

    shapes = [(a, b) for a in range(0, 5) for b in range(0, 3) if a + b >= 1]
    for (a1, b1), (a2, b2) in itertools.product(shapes, repeat=2):
        f, g = build(a1, b1), build(a2, b2)
        expected = (b2 > 0) if b1 > 0 else (b2 > 0 or a1 <= a2)
        v = compare(f, g)
        assert v.outcome is not Outcome.UNKNOWN
        assert (v.outcome is Outcome.LE) == expected, (a1, b1, a2, b2)
