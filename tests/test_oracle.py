import copy
import itertools
import pickle

import pytest

from scatcalc.compare import Engine, Outcome
from scatcalc.oracle import (
    FiniteFn,
    brute_force_le,
    format_finite_fn,
    image_formula_le,
    parse_finite_fn,
    term_of,
)
from scatcalc.term import Glue, ONE, format_term


def test_brute_force_examples():
    f = FiniteFn(3, 2, (0, 1, 0))  # surjective onto 2 points
    g = FiniteFn(5, 3, (0, 1, 2, 0, 1))  # surjective onto 3 points
    assert brute_force_le(f, g) is True
    assert brute_force_le(g, g) is True
    bij = FiniteFn(3, 3, (0, 1, 2))
    small = FiniteFn(4, 2, (0, 1, 0, 1))
    assert brute_force_le(bij, small) is False


def test_image_formula_examples():
    assert image_formula_le(FiniteFn(2, 3, (0, 1)), FiniteFn(3, 3, (0, 1, 2))) is True
    assert image_formula_le(FiniteFn(3, 3, (0, 1, 2)), FiniteFn(3, 3, (2, 1, 0))) is True
    assert image_formula_le(FiniteFn(4, 4, (0, 1, 2, 3)), FiniteFn(2, 1, (0, 0))) is False


def test_term_of():
    assert term_of(FiniteFn(3, 1, (0, 0, 0))) == ONE
    assert term_of(FiniteFn(4, 4, (0, 1, 2, 3))) == Glue([ONE] * 4)
    assert format_term(term_of(FiniteFn(3, 3, (0, 2, 0)))) == "2*one"


def test_wire_format():
    f = parse_finite_fn("3 2 0 1 0")
    assert f == FiniteFn(3, 2, (0, 1, 0))
    assert parse_finite_fn(format_finite_fn(f)) == f
    with pytest.raises(ValueError):
        parse_finite_fn("3")
    with pytest.raises(ValueError):
        parse_finite_fn("2 2 0 5")
    with pytest.raises(ValueError):
        parse_finite_fn("a b c")


def all_fns(max_dom, max_cod):
    for a in range(1, max_dom + 1):
        for b in range(1, max_cod + 1):
            for values in itertools.product(range(b), repeat=a):
                yield FiniteFn(a, b, values)


def test_oracle_formula_agreement_small():
    fns = list(all_fns(3, 3))
    for f in fns:
        for g in fns:
            assert brute_force_le(f, g) == image_formula_le(f, g)


def test_oracle_engine_agreement_small():
    fns = list(all_fns(3, 3))
    engine = Engine()
    for f in fns:
        for g in fns:
            v = engine.compare(term_of(f), term_of(g))
            assert v.outcome is not Outcome.UNKNOWN
            assert (v.outcome is Outcome.LE) == brute_force_le(f, g)


def test_finite_functions_are_immutable_values():
    f = FiniteFn(3, 2, (0, 1, 0))
    assert repr(f) == "FiniteFn(dom_size=3, cod_size=2, values=(0, 1, 0))"
    assert f == FiniteFn(dom_size=3, cod_size=2, values=(0, 1, 0))
    assert hash(f) == hash((3, 2, (0, 1, 0)))
    assert f != FiniteFn(3, 2, (0, 1, 1)) and f != (3, 2, (0, 1, 0))
    with pytest.raises(AttributeError):
        f.values = (1, 1, 1)
    with pytest.raises(AttributeError):
        f.extra = 1
    for g in (pickle.loads(pickle.dumps(f)), copy.copy(f), copy.deepcopy(f)):
        assert type(g) is FiniteFn and g == f and g.image == frozenset({0, 1})
    for bad in [(0, 1, ()), (2, 1, (0,)), (1, 1, (1,))]:
        with pytest.raises(ValueError):
            FiniteFn(*bad)
