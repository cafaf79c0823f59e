"""Enumeration of centered sets and generator sets per level.

The centered set at a level collects, up to the enumeration's reach,
the centered functions of that rank: the two canonical ones at a
successor of a limit (the min atom and the pointed max-gluing), and at
higher finite offsets all pointed gluings of non-empty subsets of the
previous centered set together with its omega copies.  The generator
set adds omega copies and wedges whose verticals are distinct non-empty
subsets of the previous generator set and whose diagonal is a subset of
the current centered set.  Finite gluings of the generator set exhaust
the whole level up to equivalence.

Raw sets grow doubly exponentially with the finite offset, so the
construction aborts when a set would hold more than ``MAX_RAW`` terms.
Deduplication is conservative: undecided pairs never merge classes and
are reported separately.
"""

from __future__ import annotations

from typing import Iterable

from . import ordinal as ord_mod
from . import rewrite
from .compare import Engine, Outcome
from .ordinal import Ordinal, Value
from .term import (
    MaxFn,
    MinFn,
    ONE,
    Omega,
    PglSet,
    Term,
    Wedge,
    sort_key,
    term_size,
)

MAX_RAW = 100_000


class FeasibilityError(RuntimeError):
    """The raw enumeration would exceed ``MAX_RAW`` terms."""


class UndecidedPairError(RuntimeError):
    """A Hasse diagram was requested over terms with an undecided pair."""

    def __init__(self, a: Term, b: Term) -> None:
        super().__init__(f"undecided pair: {a} vs {b}")
        self.pair = (a, b)


class GeneratorSet(Value):
    """The raw terms enumerated at ``level``."""

    __slots__ = ("level", "raw")
    _fields = __slots__

    level: Ordinal
    raw: list[Term]

    def __init__(self, level: Ordinal, raw: list[Term]) -> None:
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "raw", raw)


def equivalence_classes(
    terms: Iterable[Term], engine: Engine
) -> tuple[list[tuple[Term, list[Term]]], list[tuple[Term, Term]]]:
    """Group terms by bidirectional reducibility on ``engine``.  Undecided
    pairs never merge classes; they are returned alongside, as the
    pairs ``(items[i], items[j])``, ``i < j``, in index order.
    Representatives are the smallest members by normalized size,
    tie-broken syntactically; members keep the input order, and classes
    are ordered by representative.

    Each term is normalized once.  Terms with one normal form merge
    without a query (the engine would answer Yes by L-refl, and every
    rewrite is an equivalence), and ``engine.equivalent`` is asked once
    per unordered pair of distinct normal forms."""
    items = list(terms)
    slot_of: dict[Term, int] = {}
    slots = [slot_of.setdefault(rewrite.normalize(t, engine), len(slot_of)) for t in items]
    forms = list(slot_of)
    parent = list(range(len(forms)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    undecided_forms: list[tuple[int, int]] = []
    for a in range(len(forms)):
        for b in range(a + 1, len(forms)):
            answer = engine.equivalent(forms[a], forms[b])
            if answer == "Yes":
                parent[find(a)] = find(b)
            elif answer == "Unknown":
                undecided_forms.append((a, b))
    rep_keys = [(term_size(n),) + sort_key(n) for n in forms]
    groups: dict[int, list[int]] = {}
    for i, a in enumerate(slots):
        groups.setdefault(find(a), []).append(i)
    classes = []
    for members in groups.values():
        rep = min(members, key=lambda i: rep_keys[slots[i]])
        classes.append((rep_keys[slots[rep]], items[rep], [items[i] for i in members]))
    classes.sort(key=lambda c: c[0])
    # only report undecided pairs that ended up in distinct classes,
    # expanded to the index pairs of the items holding their forms
    holders: list[list[int]] = [[] for _ in forms]
    for i, a in enumerate(slots):
        holders[a].append(i)
    undecided = [
        (items[i], items[j])
        for i, j in sorted(
            (i, j) if i < j else (j, i)
            for a, b in undecided_forms
            if find(a) != find(b)
            for i in holders[a]
            for j in holders[b]
        )
    ]
    return [(rep, members) for _, rep, members in classes], undecided


def _power_set_nonempty(items: list[Term]) -> list[tuple[Term, ...]]:
    out: list[tuple[Term, ...]] = []
    n = len(items)
    for mask in range(1, 1 << n):
        out.append(tuple(items[i] for i in range(n) if mask >> i & 1))
    return out


def _power_set(items: list[Term]) -> list[tuple[Term, ...]]:
    return [()] + _power_set_nonempty(items)


def centered_raw(alpha: Ordinal) -> list[Term]:
    lam, n = ord_mod.split(alpha)
    if n == 0:
        return []
    out = [ONE] if lam.is_zero else [MinFn(Ordinal(lam.terms, 1)), PglSet([MaxFn(lam)])]
    # each further finite offset keeps the previous set and adds the
    # pointed gluings of the non-empty subsets of it and its omega
    # copies; the exponent is clipped as in generator_raw
    clip = MAX_RAW.bit_length() + 1
    for _ in range(n - 1):
        pool = out + [Omega(c) for c in out]
        if len(out) + (1 << min(len(pool), clip)) - 1 > MAX_RAW:
            raise FeasibilityError(f"centered set at {alpha} exceeds the raw bound {MAX_RAW}")
        seen = set(out)
        for subset in _power_set_nonempty(pool):
            t = PglSet(subset)
            if t not in seen:
                seen.add(t)
                out.append(t)
    return out


def generator_raw(alpha: Ordinal) -> list[Term]:
    lam, n = ord_mod.split(alpha)
    if n == 0:
        return [] if alpha.is_zero else [MaxFn(alpha)]
    centered = centered_raw(alpha)
    prev_gen = generator_raw(Ordinal(lam.terms, n - 1) if n > 1 else lam)
    # the centered terms, their omegas, and 2^(2^p - 1) - 1 vertical
    # families times 2^c diagonals: all pairwise distinct, so the count
    # is exact before any pool is built; exponents are clipped where the
    # count passes the bound anyway, so no huge integer is built either
    clip = MAX_RAW.bit_length() + 1
    vertical_sets = (1 << min(len(prev_gen), clip)) - 1
    family_count = (1 << min(vertical_sets, clip)) - 1
    if 2 * len(centered) + (family_count << min(len(centered), clip)) > MAX_RAW:
        raise FeasibilityError(
            f"generator set at {alpha} exceeds the raw bound {MAX_RAW}"
        )
    out = centered + [Omega(c) for c in centered]
    vertical_pool = _power_set_nonempty(prev_gen)
    diagonal_pool = _power_set(centered)
    for family_mask in range(1, 1 << len(vertical_pool)):
        family = [
            vertical_pool[i]
            for i in range(len(vertical_pool))
            if family_mask >> i & 1
        ]
        out.extend(Wedge(family, diagonal) for diagonal in diagonal_pool)
    return out


def centered_set(alpha: Ordinal) -> GeneratorSet:
    return GeneratorSet(level=alpha, raw=centered_raw(alpha))


def generator_set(alpha: Ordinal) -> GeneratorSet:
    return GeneratorSet(level=alpha, raw=generator_raw(alpha))


def six_generators(lam: Ordinal) -> list[Term]:
    """The minimal generating set one level above a limit (or above 1):
    max atom, min atom, pointed max-gluing, omega'd min atom, the wedge
    of the max atom over the min atom, and the max atom one level up."""
    if not (lam.is_limit or lam == ord_mod.from_int(1)):
        raise ValueError("six_generators needs a limit level or 1")
    lam1 = ord_mod.succ(lam)
    return [
        MaxFn(lam),
        MinFn(lam1),
        PglSet([MaxFn(lam)]),
        Omega(MinFn(lam1)),
        Wedge([[MaxFn(lam)]], [MinFn(lam1)]),
        MaxFn(lam1),
    ]


def hasse(terms: Iterable[Term], engine: Engine) -> list[tuple[Term, Term]]:
    """Covering relation of the strict order induced on equivalence
    classes, decided on ``engine``; edges go from the smaller to the
    larger representative.  Raises UndecidedPairError if any pairwise
    verdict is Unknown, naming the first such pair ``(items[i],
    items[j])`` in row-major order.

    The Unknown check asks each ordered pair of distinct normal forms
    once; the terms are scanned pair by pair only to name the pair."""
    items = list(terms)
    forms = list(dict.fromkeys(rewrite.normalize(t, engine) for t in items))
    if any(
        p is not q and engine.compare(p, q).outcome is Outcome.UNKNOWN
        for p in forms
        for q in forms
    ):
        for i in range(len(items)):
            for j in range(len(items)):
                if i != j and engine.compare(items[i], items[j]).outcome is Outcome.UNKNOWN:
                    raise UndecidedPairError(items[i], items[j])
    classes, _ = equivalence_classes(items, engine)
    reps = [rep for rep, _ in classes]
    less = {
        (a, b)
        for a in reps
        for b in reps
        if engine.compare(a, b).outcome is Outcome.LE
        and engine.compare(b, a).outcome is Outcome.NOT_LE
    }
    return [
        (a, b)
        for a in reps
        for b in reps
        if (a, b) in less and not any((a, c) in less and (c, b) in less for c in reps)
    ]
