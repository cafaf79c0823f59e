import itertools

import pytest
from hypothesis import given, settings

from scatcalc.compare import Engine
from scatcalc.oracle import FiniteFn, term_of
from scatcalc.ordinal import double, parse_ordinal as po
from scatcalc.rank import (
    CbType,
    NotNormalizedError,
    NotScatteredError,
    OMEGA_DEGREE,
    cb_type,
    is_centered,
    is_compact_domain,
    is_simple,
)
from scatcalc.rewrite import normalize
from scatcalc.term import EMPTY, Glue, ID_Q, MaxFn, MinFn, ONE, Omega, PglSet, parse_term

from conftest import terms


def tp(text):
    return cb_type(parse_term(text))


def test_cb_type_examples():
    assert tp("min(w+1)") == CbType(po("w+1"), 1)
    assert tp("0*empty") == CbType(po("0"), 0)
    assert tp("3*one") == CbType(po("1"), 3)
    assert tp("pgl{max(w)}") == CbType(po("w+1"), 1)
    assert tp("omega(pgl{max(w)})") == CbType(po("w+1"), OMEGA_DEGREE)
    assert tp("wedge({max(w)} | {min(w+1)})") == CbType(po("w+1"), OMEGA_DEGREE)


def test_cb_type_more_shapes():
    assert tp("max(w)") == CbType(po("w"), 0)
    assert tp("max(w+1)") == CbType(po("w+1"), OMEGA_DEGREE)
    assert tp("glue(min(w+1), max(w))") == CbType(po("w+1"), 1)
    assert tp("wedge({max(w)} | {})") == CbType(po("w+1"), 1)
    assert tp("wedge({one}, {omega(one)} | {})") == CbType(po("2"), 1)
    # diagonal attaining the wedge rank forces omega degree
    assert tp("wedge({one} | {pgl{one}})") == CbType(po("2"), OMEGA_DEGREE)
    # limit-rank wedge has degree 0
    assert tp("wedge({one} | {max(w)})") == CbType(po("w"), 0)


def test_cb_types_carry_their_comparison_keys():
    for text in ("0*empty", "one", "3*one", "max(w)", "min(w*2+3)", "omega(max(w^2+1))"):
        t = tp(text)
        assert t.lex_key == (t.rank.terms, t.rank.finite, t.degree)
        assert t.rank_key == (t.rank.terms, t.rank.finite)
        assert t.double_key == (double(t.rank).terms, double(t.rank).finite)
        assert t.limit is t.rank.is_limit
    # terms of equal type share one stored CbType
    assert tp("one") is tp("min(1)") and tp("omega(one)") is tp("max(1)")


def test_cb_type_rejects_sentinels():
    with pytest.raises(NotScatteredError):
        tp("idq")
    with pytest.raises(NotScatteredError):
        tp("idbaire")


def test_is_simple():
    assert is_simple(parse_term("pgl{one}"))
    assert is_simple(parse_term("glue(min(w+1), max(w))"))
    assert not is_simple(parse_term("omega(one)"))


def test_is_centered():
    engine = Engine()
    assert is_centered(parse_term("pgl{max(w)}"), engine)
    assert is_centered(ONE, engine)
    assert is_centered(parse_term("min(w+1)"), engine)
    assert not is_centered(parse_term("omega(min(w+1))"), engine)
    assert not is_centered(parse_term("glue(min(w+1), max(w))"), engine)
    assert not is_centered(parse_term("max(w)"), engine)
    assert not is_centered(EMPTY, engine)
    with pytest.raises(NotNormalizedError):
        is_centered(parse_term("max(2)"), engine)  # expands under normalization
    with pytest.raises(NotScatteredError):
        is_centered(ID_Q, engine)


def test_is_compact_domain():
    assert is_compact_domain(parse_term("min(w^2+1)"))
    assert not is_compact_domain(parse_term("omega(one)"))
    assert is_compact_domain(parse_term("glue(min(2), pgl{one})"))
    assert is_compact_domain(EMPTY)
    assert is_compact_domain(MaxFn(po("0")))
    assert not is_compact_domain(MaxFn(po("1")))
    assert not is_compact_domain(parse_term("wedge({one} | {})"))


@given(terms())
@settings(max_examples=250, deadline=None)
def test_glue_singleton_and_omega_rank(t):
    assert cb_type(Glue([t])) == cb_type(t)
    assert cb_type(Omega(t)).rank == cb_type(t).rank


@given(terms())
@settings(max_examples=250, deadline=None)
def test_pgl_is_simple_one_level_up(t):
    from scatcalc.ordinal import succ

    if t == EMPTY:
        return
    inner = cb_type(Glue([t]))
    outer = cb_type(PglSet([t]))
    assert outer.degree == 1
    assert outer.rank == succ(inner.rank)


@given(terms(), terms(), terms())
@settings(max_examples=250, deadline=None)
def test_degree_additivity(a, b, c):
    parts = [a, b, c]
    g = cb_type(Glue(parts))
    rank = max(cb_type(p).rank for p in parts)
    assert g.rank == rank
    if rank.is_successor:
        expected = sum(cb_type(p).degree for p in parts if cb_type(p).rank == rank)
        assert g.degree == expected
    else:
        assert g.degree == 0


@pytest.mark.parametrize("rank_text", ["1", "2", "5", "w+1", "w+3", "w^2+2"])
def test_max_expansion_consistency(rank_text):
    r = po(rank_text)
    atom = MaxFn(r)
    assert cb_type(atom) == CbType(r, OMEGA_DEGREE)
    assert cb_type(normalize(atom, Engine())) == CbType(r, OMEGA_DEGREE)


@pytest.mark.parametrize("rank_text", ["1", "2", "5", "w+1", "w+3", "w^2+2"])
def test_min_expansion_consistency(rank_text):
    r = po(rank_text)
    atom = MinFn(r)
    assert cb_type(atom) == CbType(r, 1)
    assert cb_type(normalize(atom, Engine())) == CbType(r, 1)


def test_rank_one_degree_matches_oracle_image_count():
    for a, b in itertools.product(range(1, 5), repeat=2):
        for values in itertools.product(range(b), repeat=a):
            f = FiniteFn(a, b, values)
            degree = cb_type(term_of(f)).degree
            assert degree == len(f.image)
