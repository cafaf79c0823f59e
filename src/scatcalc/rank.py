"""Cantor-Bendixson type computation and structural predicates.

The CB-type of a scattered function is the pair (rank, degree): the
rank is the least derivative index at which removing locally-constant
points stabilizes (to the empty set, since the function is scattered),
and the degree counts the image of the last non-empty derivative.  The
degree is 0 exactly when the rank is zero or limit, and otherwise a
positive count or omega.

Structural rules used here:

* a finite gluing has the supremum of the summand ranks, and its degree
  adds up the degrees of the summands attaining that supremum (glued
  codomains are disjoint, so distinguished points accumulate);
* an infinite gluing keeps the rank and inflates any positive degree to
  omega;
* a pointed gluing of a constant sequence raises the rank of the glued
  set by one and is always simple (degree 1, the basepoint);
* a wedge has rank max over verticals of (vertical rank + 1) joined
  with the diagonal rank.  Its degree is derived, not quoted: all
  vertical apexes share the single basepoint image (one point when some
  vertical attains the rank), while the diagonal contributes countably
  many disjoint copies (omega when it attains the rank with positive
  degree).

Degrees are plain ints with ``math.inf`` standing for omega, so degree
arithmetic is ordinary addition and comparison.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from . import ordinal as ord_mod
from .ordinal import Ordinal
from .term import (
    Empty,
    Glue,
    IdBaire,
    IdQ,
    MaxFn,
    MinFn,
    Omega,
    One,
    PglSet,
    Term,
    Wedge,
)

if TYPE_CHECKING:
    from .compare import Engine

OMEGA_DEGREE = math.inf

# the normal forms that are centered: see is_centered
CENTERED = (One, MinFn, PglSet)

Degree = float  # int or math.inf


class NotScatteredError(ValueError):
    """Rank is undefined for the non-scattered sentinels."""


class NotNormalizedError(ValueError):
    """Raised by syntax-directed predicates on unnormalized input."""


class CbType:
    """A CB-type with what comparisons read of it, built once:
    ``lex_key`` orders types lexicographically, ``rank_key`` orders
    their ranks, ``double_key`` is the key of the doubled rank (see
    ``ordinal.double``) and ``limit`` tells whether the rank is a
    limit.  Immutable; equal and hashed by ``(rank, degree)``."""

    __slots__ = ("rank", "degree", "lex_key", "rank_key", "double_key", "limit")

    rank: Ordinal
    degree: Degree
    lex_key: tuple
    rank_key: tuple
    double_key: tuple
    limit: bool

    def __init__(self, rank: Ordinal, degree: Degree) -> None:
        if degree == 0 and rank.is_successor:
            raise ValueError("successor rank forces a positive degree")
        if degree != 0 and not rank.is_successor:
            raise ValueError("zero or limit rank forces degree 0")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "lex_key", (rank.terms, rank.finite, degree))
        object.__setattr__(self, "rank_key", (rank.terms, rank.finite))
        object.__setattr__(self, "double_key", (rank.terms, 2 * rank.finite))
        object.__setattr__(self, "limit", rank.is_limit)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return CbType, (self.rank, self.degree)

    def __eq__(self, other):
        if other.__class__ is CbType:
            return self.rank == other.rank and self.degree == other.degree
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.rank, self.degree))

    def __repr__(self) -> str:
        return f"CbType(rank={self.rank!r}, degree={self.degree!r})"

    def __str__(self) -> str:
        deg = "w" if self.degree == OMEGA_DEGREE else str(int(self.degree))
        return f"({ord_mod.format_ordinal(self.rank)}, {deg})"


def is_scattered(t: Term) -> bool:
    return not isinstance(t, (IdQ, IdBaire))


# lex_key -> the CbType stored on every node of that type
_stored_types: dict[tuple, CbType] = {}


def cb_type(t: Term) -> CbType:
    """The CB-type of a scattered term, computed once per node and
    cached on the node itself (terms are interned: see ``term``).
    Nodes of equal type share one ``CbType``, so comparing the types of
    many terms reads few objects, and a ``CbType`` is built only for a
    type not seen before.  A term nested deeper than the interpreter's
    stack allows is typed bottom-up instead (``_type_bottom_up``)."""
    tp = t._cb_type
    if tp is None:
        try:
            key = _type_key(t)
        except RecursionError:
            _type_bottom_up(t)
            return t._cb_type
        tp = _stored_types.get(key)
        if tp is None:
            terms, finite, degree = key
            tp = _stored_types.setdefault(key, CbType(Ordinal(terms, finite), degree))
        object.__setattr__(t, "_cb_type", tp)
    return tp


def _type_bottom_up(root: Term) -> None:
    """Type the untyped nodes under ``root`` without deep recursion:
    an explicit-stack depth-first walk lists each once, after all of
    its children, and each is typed in that order, from children whose
    types are already stored.  The recursion in ``_type_key`` is the
    faster way on ordinary terms, so ``cb_type`` takes this one only
    where the recursion ran out of stack, from the deepest call with
    room for it."""
    order, stack, seen = [], [(root, False)], set()
    while stack:
        t, expanded = stack.pop()
        if expanded:
            order.append(t)
        elif t._cb_type is None and t not in seen:
            seen.add(t)
            stack.append((t, True))
            stack += [(c, False) for c in _children(t)]
    for t in order:
        cb_type(t)


def _children(t: Term) -> tuple:
    if isinstance(t, Glue):
        return t.summands
    if isinstance(t, Omega):
        return (t.body,)
    if isinstance(t, PglSet):
        return t.members
    if isinstance(t, Wedge):
        return sum(t.verticals, t.diagonal)
    return ()


def _type_key(t: Term) -> tuple:
    """The ``lex_key`` (rank terms, rank finite part, degree) of the
    type of ``t``, computed from the stored keys of its children."""
    if isinstance(t, (IdQ, IdBaire)):
        raise NotScatteredError("rank undefined for non-scattered function")
    if isinstance(t, Empty):
        return ((), 0, 0)
    if isinstance(t, One):
        return ((), 1, 1)
    if isinstance(t, MinFn):
        return (t.rank.terms, t.rank.finite, 1)
    if isinstance(t, MaxFn):
        rank = t.rank
        return (rank.terms, rank.finite, OMEGA_DEGREE if rank.finite else 0)
    if isinstance(t, Glue):
        return _glue_key(t.summands)
    if isinstance(t, Omega):
        terms, finite, degree = cb_type(t.body).lex_key
        return (terms, finite, OMEGA_DEGREE if degree > 0 else 0)
    if isinstance(t, PglSet):
        return (*_pgl_rank(t.members), 1)
    if isinstance(t, Wedge):
        verticals = [_pgl_rank(v) for v in t.verticals]
        terms, finite, diag_degree = _glue_key(t.diagonal)
        diag = (terms, finite)
        rank = max(verticals + [diag])
        degree: Degree = 1 if rank in verticals else 0
        if rank == diag and diag_degree >= 1:
            degree = OMEGA_DEGREE
        return (*rank, degree)
    raise TypeError(f"not a term: {t!r}")


def _pgl_rank(members) -> tuple:
    """The ``rank_key`` of the pointed gluing of ``members``: one above
    the rank of their gluing."""
    terms, finite, _ = _glue_key(members)
    return (terms, finite + 1)


def _glue_key(parts) -> tuple:
    """The ``lex_key`` of the finite gluing of ``parts``: the largest
    rank, and the sum of the degrees that attain it (zero and limit
    ranks have degree 0, so the sum is 0 there)."""
    top, degree = ((), 0), 0
    for part in parts:
        tp = cb_type(part)
        rank = tp.rank_key
        if rank > top:
            top, degree = rank, tp.degree
        elif rank == top:
            degree += tp.degree
    return (*top, degree)


def lex_le(a: CbType, b: CbType) -> bool:
    """Lexicographic order on CB-types; reduction is monotone for it."""
    return a.lex_key <= b.lex_key


def is_simple(t: Term) -> bool:
    """Scattered with degree exactly 1."""
    return cb_type(t).degree == 1


def is_centered(t: Term, engine: Engine) -> bool:
    """Whether the denoted function reduces to each of its restrictions
    to neighborhoods of some point.  Syntax-directed, hence only valid
    on normalized terms: One, min atoms and pointed gluings are
    centered, everything else is not.  ``engine`` checks that ``t`` is
    its own normal form."""
    from . import rewrite

    if not is_scattered(t):
        raise NotScatteredError("centeredness is only classified for scattered terms")
    if rewrite.normalize(t, engine) != t:
        raise NotNormalizedError("is_centered needs a normalized term")
    return isinstance(t, CENTERED)


def is_compact_domain(t: Term) -> bool:
    """Whether the domain is compact: min atoms and the finite base
    cases are, gluings and pointed gluings preserve it, and infinite
    gluings, wedges and max atoms of rank >= 1 break it."""
    if not is_scattered(t):
        raise NotScatteredError("compactness is only classified for scattered terms")
    if isinstance(t, (Empty, One, MinFn)):
        return True
    if isinstance(t, MaxFn):
        return t.rank.is_zero
    if isinstance(t, Glue):
        return all(is_compact_domain(s) for s in t.summands)
    if isinstance(t, PglSet):
        return all(is_compact_domain(m) for m in t.members)
    return False
