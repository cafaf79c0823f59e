import copy
import pickle

import pytest
from hypothesis import given

from scatcalc import ordinal as O
from scatcalc.ordinal import (
    Ordinal,
    OrdinalSyntaxError,
    add,
    classify,
    cmp_ordinal,
    double,
    format_ordinal,
    parse_ordinal,
    pred_if_successor,
    split,
    succ,
    sup,
)

from conftest import ordinals


# -- independent reference implementations used as oracles ------------------


def dense(o: Ordinal, size: int) -> list[int]:
    """Coefficient vector indexed by exponent (0 = finite part)."""
    out = [0] * size
    out[0] = o.finite
    for exp, coeff in o.terms:
        out[exp] = coeff
    return out


def dense_cmp(a: Ordinal, b: Ordinal) -> int:
    """Digit-by-digit comparison from the highest exponent down."""
    size = 1 + max([e for e, _ in a.terms + b.terms] + [0])
    da, db = dense(a, size), dense(b, size)
    for exp in range(size - 1, -1, -1):
        if da[exp] != db[exp]:
            return 1 if da[exp] > db[exp] else -1
    return 0


def dense_add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Textbook CNF addition on dense vectors: the left operand keeps
    only digits at or above the right operand's leading exponent."""
    size = 1 + max([e for e, _ in a.terms + b.terms] + [0])
    da, db = dense(a, size), dense(b, size)
    lead = max((exp for exp in range(size) if db[exp]), default=0)
    out = [0] * size
    for exp in range(size):
        if exp > lead:
            out[exp] = da[exp]
        elif exp == lead:
            out[exp] = da[exp] + db[exp]
        else:
            out[exp] = db[exp]
    terms = tuple((e, out[e]) for e in range(size - 1, 0, -1) if out[e])
    return Ordinal(terms, out[0])


# -- parsing and formatting --------------------------------------------------


def test_parse_examples():
    assert parse_ordinal("0") == Ordinal()
    assert parse_ordinal("w+3") == Ordinal(((1, 1),), 3)
    a = parse_ordinal("w^2*3+w+4")
    assert a == Ordinal(((2, 3), (1, 1)), 4)
    assert parse_ordinal(format_ordinal(a)) == a


def test_parse_canonicalizes_sums():
    assert parse_ordinal("w+w^2") == parse_ordinal("w^2")
    assert parse_ordinal("1+w") == parse_ordinal("w")
    assert parse_ordinal("w+w") == parse_ordinal("w*2")
    assert parse_ordinal("3+4") == parse_ordinal("7")


def test_parse_errors_carry_position():
    with pytest.raises(OrdinalSyntaxError) as exc:
        parse_ordinal("w^0")
    assert exc.value.position == 2
    with pytest.raises(OrdinalSyntaxError):
        parse_ordinal("w*0")
    with pytest.raises(OrdinalSyntaxError):
        parse_ordinal("w+")
    with pytest.raises(OrdinalSyntaxError):
        parse_ordinal("q")
    with pytest.raises(OrdinalSyntaxError):
        parse_ordinal("")


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("", "expected an ordinal atom", 0),
        ("  ", "expected an ordinal atom", 2),
        ("w+", "expected an ordinal atom", 2),
        ("w+ ", "expected an ordinal atom", 3),
        ("q", "unexpected character 'q'", 0),
        ("w2", "unexpected character '2'", 1),
        ("wx", "unexpected character 'x'", 1),
        ("3x", "unexpected character 'x'", 1),
        ("1+ +2", "unexpected character '+'", 3),
        ("w )", "unexpected character ')'", 2),
        ("w^", "expected an integer", 2),
        ("w^x", "expected an integer", 2),
        ("w*", "expected an integer", 2),
        ("w^2*", "expected an integer", 4),
        ("w^0", "exponent 0 not allowed; write the finite part as an integer", 2),
        ("w*0", "coefficient must be >= 1", 2),
        # '²' passes str.isdigit, but only decimal digits are digits
        ("²", "unexpected character '²'", 0),
    ],
)
def test_every_parse_error_names_its_position(text, message, position):
    with pytest.raises(OrdinalSyntaxError) as exc:
        parse_ordinal(text)
    assert (exc.value.message, exc.value.position) == (message, position)
    assert str(exc.value) == f"{message} (at position {position})"


@given(ordinals())
def test_roundtrip(a):
    assert parse_ordinal(format_ordinal(a)) == a


# -- comparison ---------------------------------------------------------------


def test_cmp_examples():
    assert cmp_ordinal(parse_ordinal("w"), parse_ordinal("5")) == 1
    assert cmp_ordinal(parse_ordinal("w+1"), parse_ordinal("w+1")) == 0
    assert cmp_ordinal(parse_ordinal("w^2"), parse_ordinal("w*9+9")) == 1


@given(ordinals(), ordinals())
def test_cmp_matches_dense_comparator(a, b):
    assert cmp_ordinal(a, b) == dense_cmp(a, b)


@given(ordinals(), ordinals(), ordinals())
def test_cmp_total_order(a, b, c):
    assert cmp_ordinal(a, a) == 0
    assert cmp_ordinal(a, b) == -cmp_ordinal(b, a)
    if cmp_ordinal(a, b) <= 0 and cmp_ordinal(b, c) <= 0:
        assert cmp_ordinal(a, c) <= 0


# -- addition -----------------------------------------------------------------


def test_add_examples():
    assert add(parse_ordinal("1"), parse_ordinal("w")) == parse_ordinal("w")
    assert add(parse_ordinal("w"), parse_ordinal("1")) == parse_ordinal("w+1")
    assert add(parse_ordinal("w^2+w"), parse_ordinal("w*2")) == parse_ordinal("w^2+w*3")


@given(ordinals(), ordinals())
def test_add_matches_dense_reference(a, b):
    assert add(a, b) == dense_add(a, b)


@given(ordinals(), ordinals())
def test_add_is_inflationary(a, b):
    assert cmp_ordinal(a, add(a, b)) <= 0


@given(ordinals(), ordinals(), ordinals())
def test_add_associative(a, b, c):
    assert add(add(a, b), c) == add(a, add(b, c))


# -- split / double / classify ------------------------------------------------


def test_split_examples():
    assert split(parse_ordinal("w+3")) == (parse_ordinal("w"), 3)
    assert split(parse_ordinal("7")) == (Ordinal(), 7)
    assert split(parse_ordinal("w^2*2")) == (parse_ordinal("w^2*2"), 0)


def test_double_examples():
    assert double(parse_ordinal("w+3")) == parse_ordinal("w+6")
    assert double(Ordinal()) == Ordinal()
    assert double(parse_ordinal("5")) == parse_ordinal("10")


@given(ordinals())
def test_split_double_coherence(a):
    lam, n = split(a)
    assert add(lam, O.from_int(n)) == a
    assert not lam.is_successor
    d = double(a)
    assert split(d) == (lam, 2 * n)
    assert cmp_ordinal(a, d) <= 0
    assert (cmp_ordinal(a, d) == 0) == (n == 0)


def test_classify_and_neighbors():
    assert classify(parse_ordinal("w*2")) == "limit"
    assert classify(parse_ordinal("0")) == "zero"
    assert classify(parse_ordinal("w^2+1")) == "successor"
    assert succ(parse_ordinal("w")) == parse_ordinal("w+1")
    assert pred_if_successor(parse_ordinal("w+1")) == parse_ordinal("w")
    with pytest.raises(ValueError):
        pred_if_successor(parse_ordinal("w"))
    with pytest.raises(ValueError):
        pred_if_successor(Ordinal())


@given(ordinals())
def test_succ_pred_roundtrip(a):
    assert classify(succ(a)) == "successor"
    assert pred_if_successor(succ(a)) == a


def test_sup():
    xs = [parse_ordinal(s) for s in ("3", "w", "w+1")]
    assert sup(xs) == parse_ordinal("w+1")
    with pytest.raises(ValueError):
        sup([])


@given(ordinals(), ordinals())
def test_sup_is_fold_of_cmp(a, b):
    expected = a if cmp_ordinal(a, b) >= 0 else b
    assert sup([a, b]) == expected


# -- the value class ----------------------------------------------------------


@given(ordinals(), ordinals())
def test_order_and_hash_follow_the_tuple_order(a, b):
    ka, kb = (a.terms, a.finite), (b.terms, b.finite)
    assert (a == b, a != b) == (ka == kb, ka != kb)
    assert (a < b, a <= b, a > b, a >= b) == (ka < kb, ka <= kb, ka > kb, ka >= kb)
    assert hash(a) == hash(ka)
    if a == b:
        assert hash(a) == hash(b)


def test_ordinals_compare_equal_to_ordinals_only():
    w = parse_ordinal("w")
    assert w != (((1, 1),), 0) and w != 0
    with pytest.raises(TypeError):
        w < (((1, 1),), 0)


def test_ordinals_are_immutable():
    a = parse_ordinal("w*2+3")
    with pytest.raises(AttributeError):
        a.finite = 4
    with pytest.raises(AttributeError):
        a.extra = 1
    with pytest.raises(AttributeError):
        del a.terms
    assert (a.terms, a.finite) == (((1, 2),), 3)


def test_ordinal_repr_and_str():
    a = Ordinal(((2, 3), (1, 1)), 4)
    assert repr(a) == "Ordinal('w^2*3+w+4')" and str(a) == "w^2*3+w+4"
    assert Ordinal() == Ordinal((), 0) == Ordinal(terms=(), finite=0)
    assert repr(Ordinal()) == "Ordinal('0')"


@pytest.mark.parametrize("text", ["0", "7", "w", "w^3*2+w+5"])
def test_ordinals_survive_pickle_and_copy(text):
    a = parse_ordinal(text)
    for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(b) is Ordinal and b == a and hash(b) == hash(a)
