import itertools
import random
import sys
import threading

import pytest
from hypothesis import given, settings

from scatcalc.compare import Engine, Outcome, le_compact
from scatcalc.ordinal import double, parse_ordinal as po
from scatcalc.rank import cb_type, lex_le
from scatcalc.rewrite import normalize
from scatcalc.term import Glue, MinFn, ONE, Omega, PglSet, parse_term

from conftest import terms


def outcome(a, b):
    return Engine().compare(parse_term(a), parse_term(b)).outcome


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
    engine = Engine()
    for a, b in cases:
        v = engine.compare(parse_term(a), parse_term(b))
        assert v.trace
        rules = {rule for rule, _ in v.trace}
        if v.outcome is Outcome.LE:
            assert all(r.startswith("L-") or r == "A1" for r in rules)
        elif v.outcome is Outcome.NOT_LE:
            assert all(r.startswith("N-") or r in ("A3", "A4", "A5a", "A5b") for r in rules)


def test_unknown_reports_blockers():
    # whether the level-2 maximum fits below the level-3 minimum is
    # outside every rule; the verdict must be UNKNOWN with a blocker
    v = Engine().compare(parse_term("max(2)"), parse_term("min(3)"))
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
    engine = Engine()
    assert engine.equivalent(parse_term("glue(one, omega(one))"), parse_term("omega(one)")) == "Yes"
    assert engine.equivalent(parse_term("min(2)"), parse_term("max(1)")) == "No"


def test_dominates_examples():
    engine = Engine()
    v = engine.dominates([parse_term("one")], [parse_term("omega(one)")])
    assert v.outcome is Outcome.LE
    v = engine.dominates([parse_term("min(w+1)")], [parse_term("one"), parse_term("max(w)")])
    assert v.outcome is Outcome.NOT_LE
    v = engine.dominates([parse_term("max(2)")], [parse_term("min(3)")])
    assert v.trace == (("blocked:pair", "max(2) vs every target undecided"),)


def test_trace_text_is_formatted_only_when_read(monkeypatch):
    def fail(t):
        raise AssertionError("trace text formatted before it was read")

    monkeypatch.setattr(sys.modules["scatcalc.compare"], "format_term", fail)
    v = Engine().compare(parse_term("glue(pgl{max(w)}, one)"), parse_term("omega(min(w+1))"))
    monkeypatch.undo()
    assert v.outcome is Outcome.NOT_LE
    assert v.trace and all(isinstance(text, str) for _, text in v.trace)


@pytest.mark.parametrize(
    "f, g, rule",
    [
        ("pgl{max(w), min(w+1)}", "wedge({max(w)} | {min(w+1)})", "N-lex"),
        ("2*pgl{one}", "max(w)", "L-gst"),
        # the types alone give LE, but the normal form omega(one) matches A1
        ("glue(one, omega(one))", "pgl{one}", "A1"),
    ],
)
def test_type_decided_pairs_normalize_only_when_the_trace_is_read(f, g, rule):
    f, g = parse_term(f), parse_term(g)
    engine = Engine()
    v = engine.compare(f, g)
    assert not engine._nf
    full = Engine()
    for t in (f, g):
        normalize(t, full)
    w = full.compare(f, g)
    assert v.outcome is w.outcome
    assert v.trace == w.trace and v.trace[0][0] == rule
    assert engine._nf


@given(terms(), terms())
@settings(max_examples=200, deadline=None)
def test_type_decided_verdicts_match_the_full_path(f, g):
    full = Engine()
    # the invariant the type shortcut rests on
    assert cb_type(normalize(f, full)) == cb_type(f)
    assert cb_type(normalize(g, full)) == cb_type(g)
    v, w = Engine().compare(f, g), full.compare(f, g)
    assert v.outcome is w.outcome and v.trace == w.trace


def test_concurrent_readers_derive_one_trace():
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            engine = Engine()
            v = engine.compare(parse_term("glue(one, omega(one))"), parse_term("pgl{one}"))
            traces: list = []
            threads = [threading.Thread(target=lambda: traces.append(v.trace)) for _ in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
            assert not any(th.is_alive() for th in threads)
            assert len(traces) == 8 and all(t == traces[0] for t in traces)
            assert traces[0][0][0] == "A1"
    finally:
        sys.setswitchinterval(old)


def test_le_compact_examples():
    assert le_compact(parse_term("2*min(3)"), parse_term("1*min(4)")) is True
    assert le_compact(parse_term("2*min(3)"), parse_term("1*min(3)")) is False
    assert le_compact(parse_term("min(2)"), parse_term("min(2)")) is True


def test_compact_terms_classify_as_min_multiples():
    # every non-empty compact-domain term is equivalent to degree many
    # copies of the min atom at its rank, and the engine derives it
    engine = Engine()
    for text in ("pgl{min(2), one}", "glue(min(3), pgl{pgl{one}})", "pgl{one, pgl{one}}"):
        t = parse_term(text)
        tp = cb_type(t)
        canonical = Glue([MinFn(tp.rank)] * int(tp.degree))
        assert engine.equivalent(t, canonical) == "Yes", text


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


class _NoDefaultEngine:
    """Stands in for the module-level engine and fails on any use."""

    def __getattr__(self, name):
        raise AssertionError(f"the default engine was used (.{name})")


README_COMMANDS = [
    ["type", "pgl{max(w)}"],
    ["normalize", "glue(one, one, omega(one))"],
    ["compare", "pgl{max(w)}", "omega(min(w+1))"],
    ["compare", "max(w)", "min(w+1)", "--trace"],
    ["compare", "one", "2*one", "--json"],
    ["generators", "1", "--raw"],
    ["generators", "2", "--centered", "--classes"],
    ["hasse", "w+1", "--dot"],
    ["oracle", "3 2 0 1 0", "5 3 0 1 2 0 1"],
]


def test_engine_leaves_no_trace_in_the_default_engine(monkeypatch, capsys):
    import scatcalc.compare as compare_module
    from scatcalc.cli import main
    from scatcalc.generators import centered_set, equivalence_classes, hasse
    from scatcalc.rank import is_centered
    from scatcalc.rewrite import apply_rule, rule_names

    monkeypatch.setattr(compare_module, "_default_engine", _NoDefaultEngine())
    engine = Engine(depth=3)
    engine.compare(parse_term("pgl{omega(pgl{omega(one)})}"), parse_term("pgl{omega(pgl{one})}"))
    assert engine._memo and engine._nf

    for argv in README_COMMANDS:
        assert main(argv) in (0, 1), argv
    capsys.readouterr()
    engine = Engine()
    raw = centered_set(po("2")).raw
    classes, _ = equivalence_classes(raw, engine)
    assert hasse([rep for rep, _ in classes], engine)
    t = parse_term(
        "glue(glue(min(3)), omega(omega(one)), pgl{one, omega(one)}, glue(pgl{one}, one),"
        " pgl{wedge({one} | {one})}, wedge({one}, {omega(one)} | {one}))"
    )
    for name in rule_names():
        assert apply_rule(t, name, engine) is not None, name
    assert is_centered(normalize(parse_term("pgl{max(w)}"), engine), engine)


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
    engine = Engine(depth=1)
    v = engine.compare(parse_term("glue(min(w+1), pgl{one})"), parse_term("pgl{max(w)}"))
    if v.outcome is Outcome.UNKNOWN:
        assert any(rule == "blocked:depth" for rule, _ in v.trace)


# -- invariants ---------------------------------------------------------------


@given(terms())
@settings(max_examples=150, deadline=None)
def test_reflexivity(t):
    assert Engine().compare(t, t).outcome is Outcome.LE


@given(terms())
@settings(max_examples=150, deadline=None)
def test_normalization_coherence(t):
    engine = Engine()
    n = normalize(t, engine)
    assert engine.compare(t, n).outcome is Outcome.LE
    assert engine.compare(n, t).outcome is Outcome.LE


@given(terms(), terms())
@settings(max_examples=200, deadline=None)
def test_nlex_guard(f, g):
    if Engine().compare(f, g).outcome is Outcome.LE:
        assert lex_le(cb_type(f), cb_type(g))


@given(terms(), terms())
@settings(max_examples=150, deadline=None)
def test_general_structure_sufficiency(f, g):
    if double(cb_type(f).rank) < cb_type(g).rank:
        assert Engine().compare(f, g).outcome is Outcome.LE


@given(terms())
@settings(max_examples=80, deadline=None)
def test_monotone_counts(g):
    engine = Engine()
    for m, n in [(1, 2), (2, 3), (1, 4)]:
        f_m = Glue([g] * m)
        f_n = Glue([g] * n)
        assert engine.compare(f_m, f_n).outcome is Outcome.LE
        assert engine.compare(f_m, Omega(g)).outcome is Outcome.LE


def test_context_monotonicity_sampled(rng):
    """Gluing, omega and pointed gluing are monotone, so a proven
    reduction must never be refuted once both sides are wrapped in the
    same context (Unknown is acceptable, NOT_LE is a bug)."""
    from scatcalc.sample import random_term

    engine = Engine()
    pool = [random_term(rng, 3) for _ in range(250)]
    checked = 0
    for _ in range(4000):
        f, g, h = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        if engine.compare(f, g).outcome is not Outcome.LE:
            continue
        checked += 1
        assert engine.compare(Glue([f, h]), Glue([g, h])).outcome is not Outcome.NOT_LE
        assert engine.compare(Omega(f), Omega(g)).outcome is not Outcome.NOT_LE
        if f != parse_term("0*empty") and g != parse_term("0*empty"):
            assert engine.compare(PglSet([f]), PglSet([g])).outcome is not Outcome.NOT_LE
    assert checked > 100


def test_no_le_le_notle_triangle_sampled(rng):
    from scatcalc.sample import random_term

    engine = Engine()
    pool = [random_term(rng, 4) for _ in range(300)]
    for _ in range(2000):
        f, g, h = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        if (
            engine.compare(f, g).outcome is Outcome.LE
            and engine.compare(g, h).outcome is Outcome.LE
        ):
            assert engine.compare(f, h).outcome is not Outcome.NOT_LE


def test_rank_one_fragment_complete_and_matches_formula():
    """Gluings of the two rank-1 generators compare exactly by image
    cardinality (with omega absorbing), with no Unknowns."""
    def build(a, b):
        parts = [ONE] * a + [Omega(ONE)] * b
        return Glue(parts) if len(parts) != 1 else parts[0]

    engine = Engine()
    shapes = [(a, b) for a in range(0, 5) for b in range(0, 3) if a + b >= 1]
    for (a1, b1), (a2, b2) in itertools.product(shapes, repeat=2):
        f, g = build(a1, b1), build(a2, b2)
        expected = (b2 > 0) if b1 > 0 else (b2 > 0 or a1 <= a2)
        v = engine.compare(f, g)
        assert v.outcome is not Outcome.UNKNOWN
        assert (v.outcome is Outcome.LE) == expected, (a1, b1, a2, b2)
