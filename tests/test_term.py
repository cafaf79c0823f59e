import copy
import gc
import pickle
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scatcalc import ordinal, term
from scatcalc.compare import Engine
from scatcalc.ordinal import Ordinal, parse_ordinal
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

import reference_parser
from conftest import census_inputs, load_script, terms


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


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("max(w^0)", "exponent 0 not allowed; write the finite part as an integer", 6),
        ("glue(one, min( w+x))", "unexpected character 'x'", 17),
        ("pgl{max(w*0 )}", "coefficient must be >= 1", 10),
    ],
)
def test_an_ordinal_error_in_a_term_reports_one_absolute_position(text, message, position):
    with pytest.raises(TermSyntaxError) as exc:
        parse_term(text)
    assert exc.value.position == position
    assert str(exc.value) == f"{message} (at position {position})"


# one row or more per raise site of the term grammar, and of the ordinal
# grammar read inside min(...) and max(...): (text, message, position)
PARSE_ERRORS = [
    # constructor messages, raised through the parser at the constructor's word
    ("min(w)", "min() needs a successor rank, got w", 0),
    ("wedge({one}, {one} | {})", "wedge vertical sets must be pairwise distinct", 0),
    ("wedge({} | {one})", "wedge vertical sets must be non-empty", 0),
    ("omega(idq)", "non-scattered sentinel cannot occur inside omega", 0),
    ("pgl{one, idbaire}", "non-scattered sentinel cannot occur inside pgl", 0),
    ("2*idq", "non-scattered sentinel cannot occur inside glue", 0),
    ("glue(one, idq)", "non-scattered sentinel cannot occur inside glue", 0),
    ("wedge({one} | {idq})", "non-scattered sentinel cannot occur inside wedge", 0),
    # the term grammar
    ("one extra", "trailing input after term", 4),
    ("max(3)  extra", "trailing input after term", 8),
    ("glue(one", "expected ')'", 8),
    ("omega(one, one)", "expected ')'", 9),
    ("wedge({one} {one})", "expected '|'", 12),
    ("3 one", "expected '*'", 2),
    ("7", "expected '*'", 1),
    ("(one)", "expected a term", 0),
    ("", "expected a term", 0),
    ("  ", "expected a term", 2),
    ("glue(one, )", "expected a term", 10),
    ("pgl{}", "a set is not a term here", 4),
    ("{one}", "a set is not a term here", 0),
    ("glue(one, nope)", "unknown term 'nope'", 10),
    ("max(w+1", "expected ')'", 7),
    # the ordinal grammar; it ends at the closing parenthesis, before
    # the whitespace in front of it
    ("min(w+ )", "expected an ordinal atom", 6),
    ("min()", "expected an ordinal atom", 4),
    ("min( )", "expected an ordinal atom", 5),
    ("max(1+)", "expected an ordinal atom", 6),
    ("max(w^ )", "expected an integer", 6),
    ("min(w*)", "expected an integer", 6),
    ("min(w 1)", "unexpected character '1'", 6),
    ("min(wx)", "unexpected character 'x'", 5),
    ("glue(one, min(w2))", "unexpected character '2'", 15),
    ("min(q)", "unexpected character 'q'", 4),
    ("max(w^0)", "exponent 0 not allowed; write the finite part as an integer", 6),
    ("pgl{max(w*0 )}", "coefficient must be >= 1", 10),
    # only decimal digits are digits: '²' is a word character
    ("²*one", "unknown term '²'", 0),
    ("min(²)", "unexpected character '²'", 4),
]


@pytest.mark.parametrize("text, message, position", PARSE_ERRORS)
def test_every_parse_error_names_its_position(text, message, position):
    with pytest.raises(TermSyntaxError) as exc:
        parse_term(text)
    assert exc.value.position == position
    assert str(exc.value) == f"{message} (at position {position})"


def test_gluings_are_bounded_after_flattening():
    assert len(parse_term("glue(50000*one, 50000*one)").summands) == 2
    huge = "1" + "0" * 30 + "*one"
    for text in ("100001*one", "1000*1000*one", "glue(50000*one, 50001*one)", huge):
        with pytest.raises(TermTooLargeError):
            parse_term(text)
    # a gluing under omega or pgl is not flattened into the outer one
    assert parse_term("2*omega(100000*one)") == Glue([Omega(Glue([ONE] * 100000))] * 2)


def outcome(parse, text):
    """What ``parse`` makes of ``text``: its value, or its exception
    as class, message and position."""
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


def assert_parses_as_reference(text):
    new, old = outcome(parse_term, text), outcome(reference_parser.parse_term, text)
    assert new is old or (isinstance(old, tuple) and new == old), text


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_census_texts_and_mutations_parse_as_the_reference(seed):
    with_mutations = load_script("fingerprint.py").with_mutations
    rng = random.Random(seed)
    for text in census_inputs(seed, 1500, 6000)["pool_text"]:
        for mutated in with_mutations(text, rng):
            assert_parses_as_reference(mutated)


_TERM_WORDS = ["one", "empty", "omega", "pgl", "glue", "wedge", "min", "max", "idq", "idbaire", "w"]
_TERM_GARBAGE = st.lists(
    st.sampled_from(_TERM_WORDS + list("(){},|*^+ 0123456789_x\t²")), max_size=16
).map("".join)


@given(_TERM_GARBAGE)
@settings(max_examples=1000, deadline=None)
def test_garbage_parses_as_the_reference(text):
    assert_parses_as_reference(text)


@pytest.mark.parametrize(
    "text",
    [
        "100000*one", "100001*one", "1000*1000*one", "glue(50000*one, 50001*one)",
        "glue(2*50000*one, one)", "3*glue(40000*one)", "1" + "0" * 30 + "*one",
        "2*omega(100000*one)", "0*glue(200000*one)", "glue(100001*one",
    ],
)
def test_oversized_gluings_fail_as_in_the_reference(text):
    assert_parses_as_reference(text)


_ORDINAL_TEXT = st.lists(
    st.sampled_from(list("w^*+0123456789 x)(,") + ["w2", "wx", "10"]), max_size=10
).map("".join)


@given(_ORDINAL_TEXT)
@settings(max_examples=1000, deadline=None)
def test_ordinals_read_as_the_reference(text):
    for wrapped in (f"min({text})", f"max({text}", f"glue(one, max( {text} ), one)"):
        assert_parses_as_reference(wrapped)
    new, old = outcome(parse_ordinal, text), outcome(reference_parser.parse_ordinal, text)
    assert new == old, text


def test_a_canonical_rank_builds_one_ordinal(monkeypatch):
    added = []
    add = ordinal.add
    monkeypatch.setattr(ordinal, "add", lambda a, b: added.append(b) or add(a, b))
    assert parse_term("min(w^2*3+w+4)").rank == Ordinal(((2, 3), (1, 1)), 4)
    assert parse_term("max(0)").rank == Ordinal() and not added
    assert parse_term("max(w+w^2+1+2)").rank == Ordinal(((2, 1),), 3) and len(added) == 4


def test_nesting_costs_one_frame_per_level():
    frame, used = sys._getframe(), 0
    while frame is not None:
        frame, used = frame.f_back, used + 1
    # the frames left under the recursion limit, less a few for the
    # constructors at the innermost level
    depth = sys.getrecursionlimit() - used - 20
    for opening, closing in (("pgl{", "}"), ("omega(", ")"), ("1*", ""), ("wedge({", "} | {})")):
        t = parse_term(opening * depth + "one" + closing * depth)
        assert term_size(t) >= depth + 1


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


@pytest.mark.parametrize(
    "opening, closing", [("pgl{", "}"), ("omega(", ")"), ("1*", ""), ("wedge({", "} | {})")]
)
def test_format_prints_any_nesting_the_parser_reads(opening, closing):
    # a thread starts near the bottom of its stack, as a script's top
    # level does, where the parser reads up to 989 levels
    text = opening * 980 + "one" + closing * 980
    with ThreadPoolExecutor(max_workers=1) as pool:
        t = pool.submit(parse_term, text).result(timeout=60)
    assert term_size(t) >= 981
    # printed from under the test runner's own frames: no recursion
    assert format_term(t) == text


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


@pytest.mark.parametrize("text", ["min(w*2+3)", "max(w^2)", "max(0)"])
def test_atoms_pickle_and_copy_with_their_rank(text):
    t = parse_term(text)
    for u in (pickle.loads(pickle.dumps(t)), copy.copy(t), copy.deepcopy(t)):
        assert u is t and type(u.rank) is Ordinal


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
    assert format_term(t) == "omega(" * 1000 + "one" + ")" * 1000
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


def test_dropped_terms_leave_the_intern_table():
    gc.collect()
    before = len(term._table)
    batch = [Omega(MaxFn(Ordinal(((9, 5),), n))) for n in range(200)]
    assert len(term._table) == before + 400
    del batch
    # each entry leaves with its node, with no help from the collector
    assert len(term._table) == before


def test_a_term_rebuilt_after_its_node_died_is_interned_again():
    rank = Ordinal(((9, 7),), 3)
    ident = (MinFn._variant, rank)
    t = MinFn(rank)
    old = term._table[ident]
    assert old() is t
    del t
    assert old() is None and ident not in term._table
    t = MinFn(rank)
    new = term._table[ident]
    assert new is not old and new() is t
    # a late callback of the dead entry leaves the live one in place
    term._forget(old)
    assert term._table[ident] is new and MinFn(rank) is t


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
