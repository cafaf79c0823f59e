"""Cantor-Bendixson type computation and structural predicates.

The CB-type of a scattered function is the pair (rank, degree): the
rank is the least derivative index at which removing locally-constant
points stabilizes (to the empty set, since the function is scattered),
and the degree counts the image of the last non-empty derivative.  The
degree is 0 exactly when the rank is zero or limit, and otherwise a
positive count or omega.

Structural rules, by which ``term`` computes each node's type key at
construction:

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

from typing import TYPE_CHECKING

from .ordinal import Ordinal, Value
from .term import (
    OMEGA_DEGREE,
    Empty,
    Glue,
    IdBaire,
    IdQ,
    MaxFn,
    MinFn,
    One,
    PglSet,
    Term,
)

if TYPE_CHECKING:
    from .compare import Engine

# the normal forms that are centered: see is_centered
CENTERED = (One, MinFn, PglSet)

Degree = float  # int or math.inf


class NotScatteredError(ValueError):
    """Rank is undefined for the non-scattered sentinels."""


class NotNormalizedError(ValueError):
    """Raised by syntax-directed predicates on unnormalized input."""


class CbType(Value):
    """A CB-type with what comparisons read of it, built once:
    ``lex_key`` orders types lexicographically and ``double_key`` is
    the key of the doubled rank (see ``ordinal.double``).  Immutable;
    equal and hashed by ``(rank, degree)``."""

    __slots__ = ("rank", "degree", "lex_key", "double_key")
    _fields = ("rank", "degree")

    rank: Ordinal
    degree: Degree
    lex_key: tuple
    double_key: tuple

    def __init__(self, rank: Ordinal, degree: Degree) -> None:
        if degree == 0 and rank.is_successor:
            raise ValueError("successor rank forces a positive degree")
        if degree != 0 and not rank.is_successor:
            raise ValueError("zero or limit rank forces degree 0")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "lex_key", (rank.terms, rank.finite, degree))
        object.__setattr__(self, "double_key", (rank.terms, 2 * rank.finite))

    def __str__(self) -> str:
        deg = "w" if self.degree == OMEGA_DEGREE else str(int(self.degree))
        return f"({self.rank}, {deg})"


def is_scattered(t: Term) -> bool:
    return not isinstance(t, (IdQ, IdBaire))


# type key -> the CbType shared by every node of that type
_stored_types: dict[tuple, CbType] = {}


def cb_type(t: Term) -> CbType:
    """The CB-type of a scattered term.  Each node computes its type
    key at construction, from its children's (see ``term``), so this
    only reads it, and maps it to the ``CbType`` that every node of
    that type shares: a ``CbType`` is built only for a type not seen
    before, and comparing the types of many terms reads few objects.
    Nothing is kept on the term, so every call maps its key again."""
    key = t._type_key
    tp = _stored_types.get(key)
    if tp is None:
        if key is None:
            raise NotScatteredError("rank undefined for non-scattered function")
        terms, finite, degree = key
        tp = _stored_types.setdefault(key, CbType(Ordinal(terms, finite), degree))
    return tp


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
