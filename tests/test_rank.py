import copy
import itertools
import pickle

import pytest
from hypothesis import given, settings

from scatcalc import rank
from scatcalc.compare import Engine
from scatcalc.oracle import FiniteFn, term_of
from scatcalc.ordinal import ZERO, double, parse_ordinal as po, succ
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
from scatcalc.term import (
    EMPTY,
    Empty,
    Glue,
    ID_Q,
    MaxFn,
    MinFn,
    ONE,
    Omega,
    One,
    PglSet,
    Term,
    Wedge,
    parse_term,
)

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
        assert t.double_key == (double(t.rank).terms, double(t.rank).finite)
    # terms of equal type share one stored CbType
    assert tp("one") is tp("min(1)") and tp("omega(one)") is tp("max(1)")


def test_typing_a_term_writes_nothing_on_it():
    assert Term.__slots__ == ("_key", "_size", "_type_key", "__weakref__")
    # a type no other test reads, so the first call builds its CbType
    s, t = parse_term("7*pgl{max(w^3+5)}"), parse_term("glue(7*min(w^3+6), one)")

    def slot_values(u):
        names = [n for cls in type(u).__mro__ for n in getattr(cls, "__slots__", ())]
        return [getattr(u, n) for n in names if n != "__weakref__"]

    before = [slot_values(s), slot_values(t)]
    a, b = cb_type(s), cb_type(t)
    assert a is b and a == CbType(po("w^3+6"), 7)
    for u, values in zip((s, t), before):
        assert all(x is y for x, y in zip(slot_values(u), values, strict=True))
    assert cb_type(s) is a


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


def _reference_type(t):
    """The CB-type by the structural rules of the ``rank`` docstring,
    with ``Ordinal`` arithmetic and a ``CbType`` per node."""
    if isinstance(t, Empty):
        return CbType(ZERO, 0)
    if isinstance(t, One):
        return CbType(po("1"), 1)
    if isinstance(t, MinFn):
        return CbType(t.rank, 1)
    if isinstance(t, MaxFn):
        return CbType(t.rank, OMEGA_DEGREE if t.rank.is_successor else 0)
    if isinstance(t, Glue):
        return _reference_glue(t.summands)
    if isinstance(t, Omega):
        inner = _reference_type(t.body)
        return CbType(inner.rank, OMEGA_DEGREE if inner.degree > 0 else 0)
    if isinstance(t, PglSet):
        return CbType(succ(_reference_glue(t.members).rank), 1)
    assert isinstance(t, Wedge)
    verticals = [succ(_reference_glue(v).rank) for v in t.verticals]
    diag = _reference_glue(t.diagonal)
    top = max(verticals + [diag.rank])
    degree = 1 if top in verticals else 0
    if diag.rank == top and diag.degree >= 1:
        degree = OMEGA_DEGREE
    return CbType(top, degree)


def _reference_glue(parts):
    types = [_reference_type(p) for p in parts]
    if not types:
        return CbType(ZERO, 0)
    top = max(tp.rank for tp in types)
    return CbType(top, sum(tp.degree for tp in types if tp.rank == top))


@given(terms(depth=5))
@settings(max_examples=300, deadline=None)
def test_cb_type_matches_the_reference(t):
    tp = cb_type(t)
    assert tp == _reference_type(t)
    assert tp is rank._stored_types[tp.lex_key]


@given(terms())
@settings(max_examples=250, deadline=None)
def test_glue_singleton_and_omega_rank(t):
    assert cb_type(Glue([t])) == cb_type(t)
    assert cb_type(Omega(t)).rank == cb_type(t).rank


@given(terms())
@settings(max_examples=250, deadline=None)
def test_pgl_is_simple_one_level_up(t):
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


def test_cb_types_are_immutable_values():
    t = tp("omega(max(w+1))")
    assert repr(t) == "CbType(rank=Ordinal('w+1'), degree=inf)" and str(t) == "(w+1, w)"
    assert t == CbType(po("w+1"), OMEGA_DEGREE) and hash(t) == hash((po("w+1"), OMEGA_DEGREE))
    assert t != CbType(po("w+1"), 1) and t != (po("w+1"), OMEGA_DEGREE)
    with pytest.raises(AttributeError):
        t.degree = 1
    with pytest.raises(AttributeError):
        t.extra = 1
    for u in (pickle.loads(pickle.dumps(t)), copy.copy(t), copy.deepcopy(t)):
        assert type(u) is CbType and u == t
        assert (u.lex_key, u.double_key) == (t.lex_key, t.double_key)


def test_deep_and_shared_terms_are_typed_without_recursion():
    t = ONE
    for _ in range(3000):
        t = PglSet([t])
    assert str(cb_type(t)) == "(3001, 1)"
    # every level shares its child twice: typed once per node, not per path
    t = ONE
    for _ in range(2000):
        t = Glue([t, Omega(t)])
    assert str(cb_type(t)) == "(1, w)"
