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
construction aborts beyond a configurable feasibility bound.
Deduplication is conservative: undecided pairs never merge classes and
are reported separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import ordinal as ord_mod
from . import rewrite
from .compare import Engine, Outcome
from .ordinal import Ordinal
from .rank import cb_type
from .term import (
    Glue,
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

DEFAULT_MAX_RAW = 100_000


class FeasibilityError(RuntimeError):
    """The raw enumeration would exceed the configured bound."""


class UndecidedPairError(RuntimeError):
    """A Hasse diagram was requested over terms with an undecided pair."""

    def __init__(self, a: Term, b: Term) -> None:
        super().__init__(f"undecided pair: {a} vs {b}")
        self.pair = (a, b)


@dataclass
class GeneratorSet:
    level: Ordinal
    raw: list[Term]


def _rep_key(t: Term, engine: Engine) -> tuple:
    n = rewrite.normalize(t, engine)
    return (term_size(n),) + sort_key(n)


def equivalence_classes(
    terms: Iterable[Term], engine: Engine
) -> tuple[list[tuple[Term, list[Term]]], list[tuple[Term, Term]]]:
    """Group terms by bidirectional reducibility on ``engine``.  Undecided
    pairs never merge classes; they are returned alongside.
    Representatives are the smallest members by normalized size,
    tie-broken syntactically."""
    items = list(terms)
    parent = list(range(len(items)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    undecided_ix: list[tuple[int, int]] = []
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            fwd = engine.compare(items[i], items[j]).outcome
            bwd = engine.compare(items[j], items[i]).outcome
            if fwd is Outcome.LE and bwd is Outcome.LE:
                parent[find(i)] = find(j)
            elif fwd is Outcome.UNKNOWN or bwd is Outcome.UNKNOWN:
                undecided_ix.append((i, j))
    groups: dict[int, list[Term]] = {}
    for i, t in enumerate(items):
        groups.setdefault(find(i), []).append(t)
    classes = []
    for members in groups.values():
        rep = min(members, key=lambda t: _rep_key(t, engine))
        classes.append((rep, members))
    classes.sort(key=lambda c: _rep_key(c[0], engine))
    # only report undecided pairs that ended up in distinct classes
    undecided = [
        (items[i], items[j]) for i, j in undecided_ix if find(i) != find(j)
    ]
    return classes, undecided


def _power_set_nonempty(items: list[Term]) -> list[tuple[Term, ...]]:
    out: list[tuple[Term, ...]] = []
    n = len(items)
    for mask in range(1, 1 << n):
        out.append(tuple(items[i] for i in range(n) if mask >> i & 1))
    return out


def _power_set(items: list[Term]) -> list[tuple[Term, ...]]:
    return [()] + _power_set_nonempty(items)


def centered_raw(alpha: Ordinal, max_raw: int = DEFAULT_MAX_RAW) -> list[Term]:
    lam, n = ord_mod.split(alpha)
    if n == 0:
        return []
    if lam.is_zero and n == 1:
        return [ONE]
    if n == 1:
        return [MinFn(alpha), PglSet([MaxFn(lam)])]
    prev = centered_raw(Ordinal(lam.terms, n - 1), max_raw)
    pool = prev + [Omega(c) for c in prev]
    count = len(prev) + (1 << len(pool)) - 1
    if count > max_raw:
        raise FeasibilityError(
            f"centered set at {alpha} has {count} raw terms (bound {max_raw})"
        )
    out = list(prev)
    seen = set(out)
    for subset in _power_set_nonempty(pool):
        t = PglSet(subset)
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


def generator_raw(alpha: Ordinal, max_raw: int = DEFAULT_MAX_RAW) -> list[Term]:
    lam, n = ord_mod.split(alpha)
    if n == 0:
        return [] if alpha.is_zero else [MaxFn(alpha)]
    centered = centered_raw(alpha, max_raw)
    prev_gen = generator_raw(Ordinal(lam.terms, n - 1) if n > 1 else lam, max_raw)
    out: list[Term] = []
    seen: set[Term] = set()

    def push(t: Term) -> None:
        if t not in seen:
            seen.add(t)
            out.append(t)
            if len(out) > max_raw:
                raise FeasibilityError(
                    f"generator set at {alpha} exceeds the raw bound {max_raw}"
                )

    for c in centered:
        push(c)
    for c in centered:
        push(Omega(c))
    # 2^(2^p - 1) - 1 vertical families times 2^c diagonals, counted
    # before any pool is built; exponents are clipped where the count
    # passes the bound anyway, so no huge integer is built either
    clip = max_raw.bit_length() + 1
    vertical_sets = (1 << min(len(prev_gen), clip)) - 1
    family_count = (1 << min(vertical_sets, clip)) - 1
    if (family_count << min(len(centered), clip)) + len(out) > max_raw:
        raise FeasibilityError(
            f"generator set at {alpha} exceeds the raw bound {max_raw}"
        )
    vertical_pool = _power_set_nonempty(prev_gen)
    diagonal_pool = _power_set(centered)
    for family_mask in range(1, 1 << len(vertical_pool)):
        family = [
            vertical_pool[i]
            for i in range(len(vertical_pool))
            if family_mask >> i & 1
        ]
        for diagonal in diagonal_pool:
            push(Wedge(family, diagonal))
    return out


def centered_set(alpha: Ordinal, max_raw: int = DEFAULT_MAX_RAW) -> GeneratorSet:
    return GeneratorSet(level=alpha, raw=centered_raw(alpha, max_raw))


def generator_set(alpha: Ordinal, max_raw: int = DEFAULT_MAX_RAW) -> GeneratorSet:
    return GeneratorSet(level=alpha, raw=generator_raw(alpha, max_raw))


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
    verdict is Unknown."""
    items = list(terms)
    for i in range(len(items)):
        for j in range(len(items)):
            if i != j and engine.compare(items[i], items[j]).outcome is Outcome.UNKNOWN:
                raise UndecidedPairError(items[i], items[j])
    classes, _ = equivalence_classes(items, engine)
    reps = [rep for rep, _ in classes]

    def lt(a: Term, b: Term) -> bool:
        return (
            engine.compare(a, b).outcome is Outcome.LE
            and engine.compare(b, a).outcome is Outcome.NOT_LE
        )

    edges = []
    for a in reps:
        for b in reps:
            if not lt(a, b):
                continue
            if any(lt(a, c) and lt(c, b) for c in reps if c not in (a, b)):
                continue
            edges.append((a, b))
    return edges
