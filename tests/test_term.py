import copy
import pickle
import sys
import threading

import pytest
from hypothesis import given, settings

from scatcalc.compare import Engine
from scatcalc.ordinal import parse_ordinal
from scatcalc.rewrite import normalize
from scatcalc.term import (
    EMPTY,
    Glue,
    ID_BAIRE,
    ID_Q,
    MaxFn,
    MinFn,
    ONE,
    Omega,
    One,
    PglSet,
    TermSyntaxError,
    TermTooLargeError,
    Wedge,
    format_term,
    merged_wedge,
    parse_term,
    sort_key,
    syntactic_cmp,
    term_size,
)

from conftest import terms


def test_parse_examples():
    assert parse_term("min(w+1)") == MinFn(parse_ordinal("w+1"))
    assert parse_term("glue(one, omega(one))") == Glue([ONE, Omega(ONE)])
    w = parse_term("wedge({max(w)} | {min(w+1)})")
    assert w == Wedge([[MaxFn(parse_ordinal("w"))]], [MinFn(parse_ordinal("w+1"))])


def test_parse_sugar_and_atoms():
    assert parse_term("3*one") == Glue([ONE, ONE, ONE])
    assert parse_term("0*empty") == Glue([])
    assert parse_term("idq") == ID_Q
    assert parse_term("idbaire") == ID_BAIRE
    assert parse_term(" pgl { one ,\tomega( one ) } ") == PglSet([ONE, Omega(ONE)])


def test_parse_rejections():
    with pytest.raises(TermSyntaxError):
        parse_term("min(w)")  # limit rank
    with pytest.raises(TermSyntaxError):
        parse_term("min(0)")
    with pytest.raises(TermSyntaxError):
        parse_term("pgl{}")
    with pytest.raises(TermSyntaxError):
        parse_term("wedge({one}, {one} | {})")  # duplicate vertical sets
    with pytest.raises(TermSyntaxError):
        parse_term("glue(one")
    with pytest.raises(TermSyntaxError):
        parse_term("one extra")
    with pytest.raises(TermSyntaxError) as exc:
        parse_term("glue(one, nope)")
    assert exc.value.position == 10


def test_gluings_are_bounded_after_flattening():
    assert len(parse_term("glue(50000*one, 50000*one)").summands) == 2
    huge = "1" + "0" * 30 + "*one"
    for text in ("100001*one", "1000*1000*one", "glue(50000*one, 50001*one)", huge):
        with pytest.raises(TermTooLargeError):
            parse_term(text)
    # a gluing under omega or pgl is not flattened into the outer one
    assert parse_term("2*omega(100000*one)") == Glue([Omega(Glue([ONE] * 100000))] * 2)


def test_sentinels_cannot_nest():
    with pytest.raises(ValueError):
        Glue([ID_Q])
    with pytest.raises(ValueError):
        Omega(ID_BAIRE)
    with pytest.raises(TermSyntaxError):
        parse_term("pgl{idq}")


def test_format_examples():
    assert format_term(ONE) == "one"
    assert format_term(Glue([ONE, ONE])) == "2*one"
    assert format_term(Glue([ONE, Omega(ONE)])) == "glue(one, omega(one))"
    assert format_term(Wedge([[MaxFn(parse_ordinal("w"))]], [])) == "wedge({max(w)} | {})"


def test_syntactic_cmp_examples():
    assert syntactic_cmp(EMPTY, ONE) < 0
    assert syntactic_cmp(ONE, ONE) == 0
    assert syntactic_cmp(ONE, EMPTY) > 0


def test_term_size():
    assert term_size(Glue([ONE, ONE])) == 3
    assert term_size(EMPTY) == 1
    assert term_size(parse_term("wedge({max(w)} | {min(w+1)})")) == 3


def test_multiset_semantics():
    assert Glue([ONE, Omega(ONE)]) == Glue([Omega(ONE), ONE])
    assert PglSet([ONE, ONE]) == PglSet([ONE])
    assert Wedge([[ONE], [Omega(ONE)]], []) == Wedge([[Omega(ONE)], [ONE]], [])


def test_equal_terms_are_one_object():
    assert Glue([ONE, Omega(ONE)]) is Glue([Omega(ONE), ONE])
    assert One() is ONE
    for text in ("wedge({max(w)}, {one, min(2)} | {min(w+1)})", "pgl{omega(one), 2*one}"):
        assert parse_term(text) is parse_term(text)


def test_copy_and_pickle_return_the_interned_term():
    t = parse_term("wedge({max(w)}, {one, min(2)} | {omega(min(w+1))})")
    assert copy.copy(t) is t
    assert copy.deepcopy(t) is t
    assert pickle.loads(pickle.dumps(t)) is t
    assert pickle.loads(pickle.dumps(ONE)) is ONE


def test_terms_are_immutable():
    t = Glue([ONE, Omega(ONE)])
    with pytest.raises(AttributeError):
        t.summands = ()
    with pytest.raises(AttributeError):
        t.extra = 1
    with pytest.raises(AttributeError):
        del t.summands
    assert t.summands == (ONE, Omega(ONE))


def test_deep_terms_need_no_recursion():
    t = ONE
    for _ in range(1000):
        t = Omega(t)
    assert term_size(t) == 1001
    assert isinstance(hash(t), int)
    assert sort_key(t) == (sort_key(Omega(ONE))[0], sort_key(t.body))
    assert term_size(normalize(parse_term("min(300)"), Engine())) == 300


def test_concurrent_construction_interns_once():
    # threads build the same fresh terms at once; a lost race between
    # lookup and insert would hand two threads two distinct nodes
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for r in range(1, 6):
            texts = [f"pgl{{glue(min({n}), omega(max(w^{r}*{n}+{k})))}}"
                     for n in range(2, 12) for k in range(30)]
            results: list[list] = []
            threads = [
                threading.Thread(target=lambda: results.append(list(map(parse_term, texts))))
                for _ in range(8)
            ]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
            assert not any(th.is_alive() for th in threads)
            assert len(results) == len(threads)
            for built in results[1:]:
                assert all(a is b for a, b in zip(built, results[0]))
    finally:
        sys.setswitchinterval(old)


def test_merged_wedge_collapses_duplicates():
    w = merged_wedge([[ONE], [ONE]], [])
    assert w.verticals == ((ONE,),)
    with pytest.raises(ValueError):
        Wedge([[ONE], [ONE]], [])


@given(terms())
@settings(max_examples=300, deadline=None)
def test_raw_roundtrip(t):
    assert parse_term(format_term(t)) == t


@given(terms())
@settings(max_examples=200, deadline=None)
def test_normalized_roundtrip(t):
    n = normalize(t, Engine())
    assert parse_term(format_term(n)) == n


@given(terms(), terms())
@settings(max_examples=200, deadline=None)
def test_syntactic_cmp_total_and_antisymmetric(a, b):
    assert syntactic_cmp(a, b) == -syntactic_cmp(b, a)
    if syntactic_cmp(a, b) == 0:
        assert a == b
    # stability: the key function is deterministic
    assert sort_key(a) == sort_key(a)
