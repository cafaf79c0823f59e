import copy
import itertools
import pickle
import random

import pytest

from scatcalc import generators
from scatcalc.compare import Engine, Outcome
from scatcalc.generators import (
    FeasibilityError,
    GeneratorSet,
    UndecidedPairError,
    centered_raw,
    centered_set,
    equivalence_classes,
    generator_raw,
    generator_set,
    hasse,
    six_generators,
)
from scatcalc.ordinal import Ordinal, from_int, parse_ordinal as po, split
from scatcalc.oracle import FiniteFn
from scatcalc.rank import CbType, cb_type
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
    sort_key,
    term_size,
)

from conftest import random_term


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


def test_feasibility_bound(monkeypatch):
    with pytest.raises(FeasibilityError):
        generator_raw(from_int(3))
    with pytest.raises(FeasibilityError):
        generator_raw(po("w+2"))
    monkeypatch.setattr(generators, "MAX_RAW", 2)
    with pytest.raises(FeasibilityError):
        centered_raw(from_int(2))


def recursive_centered_raw(alpha):
    """The centered set built by recursion on the finite offset: the
    test oracle for the loop over the offsets."""
    lam, n = split(alpha)
    if n == 0:
        return []
    if n == 1:
        return [ONE] if lam.is_zero else [MinFn(alpha), PglSet([MaxFn(lam)])]
    prev = recursive_centered_raw(Ordinal(lam.terms, n - 1))
    pool = prev + [Omega(c) for c in prev]
    out = list(prev)
    for mask in range(1, 1 << len(pool)):
        t = PglSet([pool[i] for i in range(len(pool)) if mask >> i & 1])
        if t not in out:
            out.append(t)
    return out


@pytest.mark.parametrize("level", ["1", "2", "3", "w", "w+1", "w+2", "w*2+2", "w^2+2"])
def test_centered_sets_match_the_recursive_definition(level):
    assert centered_raw(po(level)) == recursive_centered_raw(po(level))


@pytest.mark.parametrize("level", ["4", "w+3", str(10**6), f"w^2+{10**6}"])
def test_an_infeasible_centered_set_is_refused_at_the_requested_level(level):
    with pytest.raises(FeasibilityError) as exc:
        centered_raw(po(level))
    assert str(exc.value) == f"centered set at {po(level)} exceeds the raw bound {generators.MAX_RAW}"


def test_refusal_builds_no_pool(monkeypatch):
    # the wedge count is known before any power set is built, so the
    # refusal at w+2 must not build one
    prev_gen = generator_raw(po("w+1"))
    centered = centered_raw(po("w+2"))

    def fail(items):
        raise AssertionError("power set built for a refused level")

    monkeypatch.setattr(generators, "generator_raw", lambda alpha: prev_gen)
    monkeypatch.setattr(generators, "centered_raw", lambda alpha: centered)
    monkeypatch.setattr(generators, "_power_set", fail)
    monkeypatch.setattr(generators, "_power_set_nonempty", fail)
    with pytest.raises(FeasibilityError, match="exceeds the raw bound"):
        generator_raw(po("w+2"))


def test_feasibility_bound_is_exact(monkeypatch):
    monkeypatch.setattr(generators, "MAX_RAW", 120)
    assert len(generator_raw(from_int(2))) == 120
    monkeypatch.setattr(generators, "MAX_RAW", 119)
    with pytest.raises(FeasibilityError):
        generator_raw(from_int(2))


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


def test_one_refuted_direction_is_not_undecided():
    # max(2) vs min(3) is UNKNOWN one way, but min(3) NOT_LE max(2)
    # already shows the two are not equivalent
    f, g = parse_term("max(2)"), parse_term("min(3)")
    engine = Engine()
    assert engine.compare(g, f).outcome is Outcome.NOT_LE
    classes, undecided = equivalence_classes([f, g], engine)
    assert len(classes) == 2
    assert undecided == []


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


def test_generator_sets_are_immutable_values():
    s = centered_set(from_int(1))
    assert repr(s) == "GeneratorSet(level=Ordinal('1'), raw=[One()])"
    assert s == GeneratorSet(level=from_int(1), raw=[ONE])
    assert s != GeneratorSet(from_int(2), [ONE]) and s != (from_int(1), [ONE])
    with pytest.raises(AttributeError):
        s.raw = []
    with pytest.raises(AttributeError):
        s.extra = 1
    with pytest.raises(AttributeError):
        del s.level
    for t in (pickle.loads(pickle.dumps(s)), copy.copy(s), copy.deepcopy(s)):
        assert type(t) is GeneratorSet and t == s
    # values of different classes never compare equal
    values = [from_int(1), CbType(from_int(1), 1), FiniteFn(1, 1, (0,)), s]
    for a, b in itertools.permutations(values, 2):
        assert a != b and not a == b


def all_pairs_classes(terms, engine):
    """The reference: one ``equivalent`` query per unordered pair of
    items, union-find over the items."""
    items = list(terms)
    parent = list(range(len(items)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def rep_key(t):
        n = normalize(t, engine)
        return (term_size(n),) + sort_key(n)

    undecided_ix = []
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            answer = engine.equivalent(items[i], items[j])
            if answer == "Yes":
                parent[find(i)] = find(j)
            elif answer == "Unknown":
                undecided_ix.append((i, j))
    groups = {}
    for i, t in enumerate(items):
        groups.setdefault(find(i), []).append(t)
    classes = [(min(members, key=rep_key), members) for members in groups.values()]
    classes.sort(key=lambda c: rep_key(c[0]))
    undecided = [(items[i], items[j]) for i, j in undecided_ix if find(i) != find(j)]
    return classes, undecided


def first_unknown_pair(items, engine):
    """The reference: the first ``(items[i], items[j])`` in row-major
    order whose verdict is UNKNOWN, or None."""
    for i in range(len(items)):
        for j in range(len(items)):
            if i != j and engine.compare(items[i], items[j]).outcome is Outcome.UNKNOWN:
                return items[i], items[j]
    return None


def random_terms_with_duplicates():
    # items sharing a normal form, and undecided pairs between classes
    rng = random.Random(3)
    items = [random_term(rng, 3) for _ in range(80)]
    return items + items[::9]


def shuffled_generators_at_2():
    raw = generator_raw(from_int(2))
    items = raw + raw[::7] + [Glue([ONE, ONE]), Omega(Omega(ONE)), PglSet([ONE, ONE])]
    random.Random(15).shuffle(items)
    return items


@pytest.mark.parametrize(
    "make",
    [
        lambda: centered_raw(from_int(3)),
        lambda: centered_raw(po("w+2")),
        shuffled_generators_at_2,
        random_terms_with_duplicates,
        # three distinct normal forms of one class, merged by the union-find
        lambda: [parse_term(t) for t in ("pgl{one}", "pgl{2*one}", "pgl{3*one}", "one")],
    ],
    ids=[
        "centered 3",
        "centered w+2",
        "shuffled generators 2",
        "random terms",
        "equivalent normal forms",
    ],
)
def test_equivalence_classes_match_the_all_pairs_reference(make):
    items = make()
    classes, undecided = equivalence_classes(items, Engine())
    ref_classes, ref_undecided = all_pairs_classes(items, Engine())
    assert classes == ref_classes
    assert undecided == ref_undecided
    # the same lists on the reversed items
    assert equivalence_classes(items[::-1], Engine()) == all_pairs_classes(items[::-1], Engine())


@pytest.mark.parametrize(
    "items",
    [centered_raw(from_int(3)), shuffled_generators_at_2()],
    ids=["centered 3", "shuffled generators 2"],
)
def test_equivalence_classes_ask_each_pair_of_forms_once(items):
    engine = Engine()
    forms = {normalize(t, engine) for t in items}
    asked = []
    plain = engine.equivalent

    def equivalent(f, g):
        asked.append(frozenset((f, g)))
        return plain(f, g)

    engine.equivalent = equivalent
    equivalence_classes(items, engine)
    assert len(forms) < len(items)
    assert all(len(pair) == 2 and pair <= forms for pair in asked)
    assert len(asked) == len(set(asked)) <= len(forms) * (len(forms) - 1) // 2


def test_hasse_names_the_first_undecided_pair():
    texts = [
        "one", "omega(one)", "omega(omega(one))", "glue(one, omega(one))", "pgl{one}",
        "min(2)", "pgl{one, one}", "one", "pgl{one}", "max(2)", "glue(max(2), max(2))",
        "min(3)", "omega(max(2))", "glue(min(3), one)", "max(2)",
    ]
    pool = [parse_term(text) for text in texts]
    undecided = {normalize(parse_term(t), Engine()) for t in ("max(2)", "min(3)")}
    for items in (pool, pool[::-1]):
        expected = first_unknown_pair(items, Engine())
        engine = Engine()
        assert {normalize(t, engine) for t in expected} == undecided
        with pytest.raises(UndecidedPairError) as exc:
            hasse(items, engine)
        assert exc.value.pair == expected
