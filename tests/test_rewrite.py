import pytest
from hypothesis import given, settings

from scatcalc import rewrite
from scatcalc.compare import Engine, Outcome, compare
from scatcalc.rank import cb_type
from scatcalc.rewrite import NormalizationLimitError, apply_rule, normalize, rule_names
from scatcalc.term import Glue, ONE, Omega, PglSet, parse_term

from conftest import terms


def norm(text):
    return normalize(parse_term(text))


def test_normalize_examples():
    assert norm("glue(glue(one, one), 0*empty)") == parse_term("2*one")
    assert norm("glue(one, one, omega(one))") == parse_term("omega(one)")
    assert norm("max(2)") == parse_term("omega(pgl{omega(one)})")
    assert norm("pgl{one, omega(one)}") == parse_term("pgl{omega(one)}")
    assert norm("wedge({max(w)} | {})") == parse_term("pgl{max(w)}")


def test_minmax_expansions():
    assert norm("min(1)") == ONE
    assert norm("min(2)") == parse_term("pgl{one}")
    assert norm("min(w+3)") == parse_term("pgl{pgl{min(w+1)}}")
    assert norm("max(0)") == parse_term("0*empty") or norm("max(0)") == parse_term("empty")
    assert norm("max(1)") == parse_term("omega(one)")
    assert norm("max(w+1)") == parse_term("omega(pgl{max(w)})")
    assert norm("min(w+1)") == parse_term("min(w+1)")  # limit+1 atoms stay
    assert norm("max(w^2)") == parse_term("max(w^2)")


def test_omega_rules():
    assert norm("omega(0*empty)") == parse_term("empty")
    assert norm("omega(omega(one))") == parse_term("omega(one)")
    assert norm("omega(glue(one, min(w+1)))") == parse_term(
        "glue(omega(one), omega(min(w+1)))"
    )
    assert norm("glue(omega(one), omega(one))") == parse_term("omega(one)")


def test_pgl_absorb():
    # a pointed gluing splits off finite prefixes of its member set
    assert norm("glue(pgl{max(w)}, max(w))") == parse_term("pgl{max(w)}")
    assert norm("glue(pgl{one}, one, one)") == parse_term("pgl{one}")
    # a min atom is not absorbed: the pair is strictly above the pgl alone
    assert norm("glue(pgl{max(w)}, min(w+1))") == parse_term(
        "glue(pgl{max(w)}, min(w+1))"
    )


def test_pgl_wedge_replacement():
    t = parse_term("pgl{wedge({max(w)} | {min(w+1)}), one}")
    n = normalize(t)
    # the wedge member is replaced by its vertical pgl and omega'd diagonal
    assert n == parse_term("pgl{omega(min(w+1)), pgl{max(w)}}")


def test_wedge_reduce_diagonal_and_collapse():
    # dominated diagonal member drops, then the wedge collapses to
    # omega copies once the vertical reduces into the diagonal
    t = parse_term("wedge({max(w)} | {min(w+1), pgl{max(w)}})")
    assert normalize(t) == parse_term("omega(pgl{max(w)})")
    # vertical family reduces to a domination-maximal antichain
    t2 = parse_term("wedge({one}, {omega(one)} | {})")
    assert normalize(t2) == parse_term("pgl{omega(one)}")


def test_apply_rule_examples():
    assert apply_rule(parse_term("glue(glue(one))"), "R-flat") == parse_term("1*one")
    assert apply_rule(parse_term("omega(omega(one))"), "R-omega") == parse_term(
        "omega(one)"
    )
    assert apply_rule(parse_term("min(3)"), "R-minmax") == parse_term("pgl{min(2)}")
    assert apply_rule(ONE, "R-flat") is None


def test_apply_rule_goes_outermost_leftmost():
    t = parse_term("pgl{glue(glue(one)), min(3)}")
    stepped = apply_rule(t, "R-flat")
    assert stepped == parse_term("pgl{1*one, min(3)}")


def test_apply_rule_unknown_name():
    with pytest.raises(ValueError):
        apply_rule(ONE, "R-nonsense")
    assert "R-flat" in rule_names()


def test_normalize_cap_overflow(monkeypatch):
    # a fresh engine has no cached normal form to answer from
    monkeypatch.setattr(rewrite, "DEFAULT_CAP_FACTOR", 0)
    with pytest.raises(NormalizationLimitError):
        normalize(parse_term("glue(pgl{one}, one, one, one, one)"), Engine())


@given(terms())
@settings(max_examples=300, deadline=None)
def test_normalize_idempotent(t):
    n = normalize(t)
    assert normalize(n) == n


@given(terms())
@settings(max_examples=300, deadline=None)
def test_normalize_preserves_cb_type(t):
    assert cb_type(normalize(t)) == cb_type(t)


@given(terms())
@settings(max_examples=60, deadline=None)
def test_rule_steps_are_equivalences(t):
    for name in rule_names():
        stepped = apply_rule(t, name)
        if stepped is None:
            continue
        assert cb_type(stepped) == cb_type(t)
        assert compare(t, stepped).outcome is Outcome.LE
        assert compare(stepped, t).outcome is Outcome.LE
