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
from dataclasses import dataclass, field
from operator import attrgetter

from . import ordinal as ord_mod
from .ordinal import Ordinal, ZERO
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

OMEGA_DEGREE = math.inf

Degree = float  # int or math.inf


class NotScatteredError(ValueError):
    """Rank is undefined for the non-scattered sentinels."""


class NotNormalizedError(ValueError):
    """Raised by syntax-directed predicates on unnormalized input."""


@dataclass(frozen=True)
class CbType:
    """A CB-type with what comparisons read of it, built once:
    ``lex_key`` orders types lexicographically, ``rank_key`` orders
    their ranks, ``double_key`` is the key of the doubled rank (see
    ``ordinal.double``) and ``limit`` tells whether the rank is a
    limit."""

    rank: Ordinal
    degree: Degree
    lex_key: tuple = field(init=False, repr=False, compare=False)
    rank_key: tuple = field(init=False, repr=False, compare=False)
    double_key: tuple = field(init=False, repr=False, compare=False)
    limit: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.degree == 0 and self.rank.is_successor:
            raise ValueError("successor rank forces a positive degree")
        if self.degree != 0 and not self.rank.is_successor:
            raise ValueError("zero or limit rank forces degree 0")
        rank = self.rank
        object.__setattr__(self, "lex_key", (rank.terms, rank.finite, self.degree))
        object.__setattr__(self, "rank_key", (rank.terms, rank.finite))
        object.__setattr__(self, "double_key", (rank.terms, 2 * rank.finite))
        object.__setattr__(self, "limit", rank.is_limit)

    def __str__(self) -> str:
        deg = "w" if self.degree == OMEGA_DEGREE else str(int(self.degree))
        return f"({ord_mod.format_ordinal(self.rank)}, {deg})"


def is_scattered(t: Term) -> bool:
    return not isinstance(t, (IdQ, IdBaire))


_rank_key = attrgetter("rank_key")

# lex_key -> the CbType stored on every node of that type
_stored_types: dict[tuple, CbType] = {}


def cb_type(t: Term) -> CbType:
    """The CB-type of a scattered term, computed once per node and
    cached on the node itself (terms are interned: see ``term``).
    Nodes of equal type share one ``CbType``, so comparing the types of
    many terms reads few objects."""
    tp = t._cb_type
    if tp is None:
        tp = _cb_type_of(t)
        tp = _stored_types.setdefault(tp.lex_key, tp)
        object.__setattr__(t, "_cb_type", tp)
    return tp


def _cb_type_of(t: Term) -> CbType:
    if isinstance(t, (IdQ, IdBaire)):
        raise NotScatteredError("rank undefined for non-scattered function")
    if isinstance(t, Empty):
        return CbType(ZERO, 0)
    if isinstance(t, One):
        return CbType(ord_mod.from_int(1), 1)
    if isinstance(t, MinFn):
        return CbType(t.rank, 1)
    if isinstance(t, MaxFn):
        return CbType(t.rank, OMEGA_DEGREE if t.rank.is_successor else 0)
    if isinstance(t, Glue):
        return _glue_type([cb_type(s) for s in t.summands])
    if isinstance(t, Omega):
        inner = cb_type(t.body)
        return CbType(inner.rank, OMEGA_DEGREE if inner.degree > 0 else 0)
    if isinstance(t, PglSet):
        glued = _glue_type([cb_type(m) for m in t.members])
        return CbType(ord_mod.succ(glued.rank), 1)
    if isinstance(t, Wedge):
        verticals = [
            ord_mod.succ(_glue_type([cb_type(x) for x in v]).rank) for v in t.verticals
        ]
        diag = _glue_type([cb_type(d) for d in t.diagonal])
        rank = max(verticals + [diag.rank])
        degree: Degree = 0
        if any(v == rank for v in verticals):
            degree += 1
        if diag.rank == rank and diag.degree >= 1:
            degree = OMEGA_DEGREE
        return CbType(rank, degree)
    raise TypeError(f"not a term: {t!r}")


def _glue_type(types: list[CbType]) -> CbType:
    if not types:
        return CbType(ZERO, 0)
    # zero and limit ranks have degree 0, so the sum is 0 there
    top = max(types, key=_rank_key)
    degree: Degree = sum(tp.degree for tp in types if tp.rank_key == top.rank_key)
    return top if degree == top.degree else CbType(top.rank, degree)


def lex_le(a: CbType, b: CbType) -> bool:
    """Lexicographic order on CB-types; reduction is monotone for it."""
    return a.lex_key <= b.lex_key


def is_simple(t: Term) -> bool:
    """Scattered with degree exactly 1."""
    return cb_type(t).degree == 1


def is_centered(t: Term) -> bool:
    """Whether the denoted function reduces to each of its restrictions
    to neighborhoods of some point.  Syntax-directed, hence only valid
    on normalized terms: One, min atoms and pointed gluings are
    centered, everything else is not."""
    if not is_scattered(t):
        raise NotScatteredError("centeredness is only classified for scattered terms")
    from . import rewrite

    if rewrite.normalize(t) != t:
        raise NotNormalizedError("is_centered needs a normalized term")
    return isinstance(t, (One, MinFn, PglSet))


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
