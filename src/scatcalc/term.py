"""Syntax of the scattered-function calculus.

Terms denote continuous functions between zero-dimensional separable
metrizable spaces, built from a closed constructor set:

* ``Empty`` and ``One``: the empty function and the identity on a
  singleton.
* ``IdQ`` / ``IdBaire``: the two non-scattered sentinels (identity on
  the rationals and on Baire space).  They are standalone atoms and
  never occur under another constructor.
* ``Glue``: finite disjoint sum on domains and codomains.  Summands
  form a multiset; ``k * t`` in the concrete syntax abbreviates a
  k-fold gluing.
* ``Omega``: countably infinite gluing of one term.
* ``PglSet``: pointed gluing of the constant sequence on the finite
  gluing of the member set, attached at a single accumulation point on
  both sides.
* ``Wedge``: vertical families of repeated pointed gluings sharing one
  codomain basepoint, plus a diagonal of countably many copies of the
  diagonal set's gluing converging to that basepoint.
* ``MinFn(a)`` / ``MaxFn(a)``: atoms for the minimum function among
  ranks >= a (a must be a successor) and the maximum among ranks <= a.

Terms are immutable and interned (hash-consed): a constructor
validates and orders its arguments, then returns the one live node with
those fields, so equal terms are one object and equality is identity.
A node's hash, sort key and size are computed once, at construction,
from its children's; ``rank.cb_type`` stores the CB-type on the node
when first asked.  The intern table holds nodes weakly and is guarded
by a lock.  Copying and unpickling return the interned node.

Pointed gluings of non-constant sequences are not representable.  Every
centered function is still covered up to equivalence by ``PglSet``, but
a finitely-supported or monotone non-constant pointed gluing has no
term of its own; callers needing one must pick an equivalent ``PglSet``
form by hand.  Points, spaces and reducing maps are never materialized.
"""

from __future__ import annotations

import threading
import weakref
from operator import attrgetter

from . import ordinal as ord_mod
from .ordinal import Ordinal, OrdinalSyntaxError


class TermSyntaxError(ValueError):
    """Raised on malformed term text; carries the offending position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


# (variant, *fields) -> the live node; see _intern
_table: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_table_lock = threading.Lock()
_key_of = attrgetter("_key")


class Term:
    """Base class of the interned nodes.  A subclass lists its fields
    in ``__slots__`` in constructor order, numbers itself in
    ``_variant`` and returns ``(sort key, size)`` from ``_measure``."""

    __slots__ = ("_hash", "_key", "_size", "_cb_type", "__weakref__")
    _variant: int

    def __new__(cls) -> "Term":  # the atoms; the other variants take fields
        return _intern(cls)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} terms are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} terms are immutable")

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # unpickling calls the constructor, which returns the interned node
        return type(self), tuple(getattr(self, name) for name in type(self).__slots__)

    def __deepcopy__(self, memo) -> "Term":
        return self

    def _measure(self) -> tuple[tuple, int]:
        return (self._variant,), 1

    def __repr__(self) -> str:
        args = self.__reduce__()[1]
        return f"{type(self).__name__}({', '.join(repr(_listed(a)) for a in args)})"

    def __str__(self) -> str:
        return format_term(self)


def _listed(x):
    return [_listed(y) for y in x] if isinstance(x, tuple) else x


def _intern(cls, *fields) -> Term:
    """The one live node of ``cls`` with these (canonical) fields."""
    ident = (cls._variant, *fields)
    with _table_lock:
        node = _table.get(ident)
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls.__slots__, fields):
                object.__setattr__(node, name, value)
            key, size = node._measure()
            object.__setattr__(node, "_key", key)
            object.__setattr__(node, "_size", size)
            object.__setattr__(node, "_hash", hash(ident))
            object.__setattr__(node, "_cb_type", None)
            _table[ident] = node
    return node


class Empty(Term):
    __slots__ = ()
    _variant = 0


class One(Term):
    __slots__ = ()
    _variant = 1


class IdQ(Term):
    __slots__ = ()
    _variant = 2


class IdBaire(Term):
    __slots__ = ()
    _variant = 3


def _check_inner(items, where: str) -> None:
    if any(isinstance(t, (IdQ, IdBaire)) for t in items):
        raise ValueError(f"non-scattered sentinel cannot occur inside {where}")


class Glue(Term):
    """Finite multiset gluing.  Summands are kept sorted by the fixed
    syntactic order; nesting is permitted in raw terms and removed by
    normalization."""

    __slots__ = ("summands",)
    _variant = 7

    def __new__(cls, summands) -> "Glue":
        items = tuple(sorted(summands, key=_key_of))
        _check_inner(items, "glue")
        return _intern(cls, items)

    def _measure(self) -> tuple[tuple, int]:
        ss = self.summands
        return (self._variant, len(ss), tuple(s._key for s in ss)), 1 + sum(s._size for s in ss)


class Omega(Term):
    __slots__ = ("body",)
    _variant = 6

    def __new__(cls, body: Term) -> "Omega":
        _check_inner((body,), "omega")
        return _intern(cls, body)

    def _measure(self) -> tuple[tuple, int]:
        return (self._variant, self.body._key), 1 + self.body._size


class PglSet(Term):
    """Pointed gluing of the constant sequence on the gluing of
    ``members`` (a non-empty finite set, stored sorted)."""

    __slots__ = ("members",)
    _variant = 8

    def __new__(cls, members) -> "PglSet":
        items = _sorted_set(members)
        if not items:
            raise ValueError("pgl needs at least one member")
        _check_inner(items, "pgl")
        return _intern(cls, items)

    def _measure(self) -> tuple[tuple, int]:
        ms = self.members
        return (self._variant, len(ms), tuple(m._key for m in ms)), 1 + sum(m._size for m in ms)


class Wedge(Term):
    """Wedge of vertical set families over a diagonal set.

    ``verticals`` is a non-empty family of pairwise distinct non-empty
    finite sets of terms; the family itself is stored sorted, which is
    harmless because the operation is insensitive to vertical order.
    ``diagonal`` is a finite (possibly empty) set of terms.
    """

    __slots__ = ("verticals", "diagonal")
    _variant = 9

    def __new__(cls, verticals, diagonal) -> "Wedge":
        vert = tuple(sorted((_sorted_set(v) for v in verticals), key=_family_key))
        if not vert:
            raise ValueError("wedge needs at least one vertical set")
        for v in vert:
            if not v:
                raise ValueError("wedge vertical sets must be non-empty")
            _check_inner(v, "wedge")
        if len(set(vert)) != len(vert):
            raise ValueError("wedge vertical sets must be pairwise distinct")
        diag = _sorted_set(diagonal)
        _check_inner(diag, "wedge")
        return _intern(cls, vert, diag)

    def _measure(self) -> tuple[tuple, int]:
        vs, ds = self.verticals, self.diagonal
        key = (self._variant, tuple(map(_family_key, vs)), tuple(d._key for d in ds))
        return key, 1 + sum(x._size for v in vs + (ds,) for x in v)


class MinFn(Term):
    """Minimum function among scattered functions of rank >= ``rank``;
    the rank argument must classify as a successor."""

    __slots__ = ("rank",)
    _variant = 4

    def __new__(cls, rank: Ordinal) -> "MinFn":
        if not rank.is_successor:
            raise ValueError(f"min() needs a successor rank, got {rank}")
        return _intern(cls, rank)

    def _measure(self) -> tuple[tuple, int]:
        return (self._variant, self.rank.terms, self.rank.finite), 1


class MaxFn(Term):
    """Maximum function among scattered functions of rank <= ``rank``."""

    __slots__ = ("rank",)
    _variant = 5

    def __new__(cls, rank: Ordinal) -> "MaxFn":
        return _intern(cls, rank)

    _measure = MinFn._measure


EMPTY = Empty()
ONE = One()
ID_Q = IdQ()
ID_BAIRE = IdBaire()


def merged_wedge(verticals, diagonal) -> "Wedge":
    """Wedge constructor that merges duplicate vertical sets.  Rewriting
    can collapse two distinct sets to the same one; a family listing a
    set twice is equivalent for domination to the deduplicated family,
    so the denotations agree."""
    return Wedge(list(dict.fromkeys(_sorted_set(v) for v in verticals)), diagonal)


def glue(*summands: Term) -> Glue:
    return Glue(summands)


def glue_of(members) -> Term:
    """The gluing of ``members``, or the member itself when it is alone."""
    return members[0] if len(members) == 1 else Glue(members)


def summands_of(t: Term) -> tuple[Term, ...]:
    """The summands of a gluing, or ``t`` alone."""
    return t.summands if isinstance(t, Glue) else (t,)


def copies(n: int, t: Term) -> Glue:
    return Glue((t,) * n)


def pgl(*members: Term) -> PglSet:
    return PglSet(members)


def omega(t: Term) -> Omega:
    return Omega(t)


# ---------------------------------------------------------------------------
# Fixed total order on terms


def sort_key(t: Term) -> tuple:
    """Stable structural key: variant index first, then components
    (the rank's CNF for min/max atoms, the children's keys otherwise).

    This is an arbitrary but fixed total order used for canonical
    multiset ordering and tie-breaking; it has no semantic content.
    Each node stores its key at construction.
    """
    return t._key


def _family_key(family: tuple[Term, ...]) -> tuple:
    return (len(family),) + tuple(t._key for t in family)


def _sorted_set(items) -> tuple[Term, ...]:
    return tuple(sorted(set(items), key=_key_of))


def syntactic_cmp(a: Term, b: Term) -> int:
    ka, kb = sort_key(a), sort_key(b)
    return (ka > kb) - (ka < kb)


def term_size(t: Term) -> int:
    """Number of constructor nodes (ordinal arguments do not count),
    stored on each node at construction."""
    return t._size


# ---------------------------------------------------------------------------
# Concrete syntax


def format_term(t: Term) -> str:
    if isinstance(t, Empty):
        return "empty"
    if isinstance(t, One):
        return "one"
    if isinstance(t, IdQ):
        return "idq"
    if isinstance(t, IdBaire):
        return "idbaire"
    if isinstance(t, MinFn):
        return f"min({ord_mod.format_ordinal(t.rank)})"
    if isinstance(t, MaxFn):
        return f"max({ord_mod.format_ordinal(t.rank)})"
    if isinstance(t, Omega):
        return f"omega({format_term(t.body)})"
    if isinstance(t, Glue):
        ss = t.summands
        if not ss:
            return "0*empty"
        if len(set(ss)) == 1:
            return f"{len(ss)}*{format_term(ss[0])}"
        return "glue(" + ", ".join(format_term(s) for s in ss) + ")"
    if isinstance(t, PglSet):
        return "pgl{" + ", ".join(format_term(m) for m in t.members) + "}"
    if isinstance(t, Wedge):
        vs = ", ".join(_format_set(v) for v in t.verticals)
        return f"wedge({vs} | {_format_set(t.diagonal)})"
    raise TypeError(f"not a term: {t!r}")


def _format_set(items: tuple[Term, ...]) -> str:
    return "{" + ", ".join(format_term(t) for t in items) + "}"


def parse_term(text: str) -> Term:
    """Parse the term grammar; returns the denoted raw term without
    normalizing.  ``INT * term`` denotes an INT-fold gluing."""
    parser = _Parser(text)
    t = parser.parse_term()
    parser.expect_end()
    return t


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def error(self, message: str) -> TermSyntaxError:
        return TermSyntaxError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, ch: str) -> None:
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def expect_end(self) -> None:
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("trailing input after term")

    def build(self, ctor, at: int, *args):
        try:
            return ctor(*args)
        except ValueError as exc:
            raise TermSyntaxError(str(exc), at) from exc

    def read_word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start : self.pos]

    def read_int(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise self.error("expected an integer")
        return int(self.text[start : self.pos])

    def read_ordinal_until(self, closer: str) -> Ordinal:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] != closer:
            self.pos += 1
        raw = self.text[start : self.pos]
        try:
            return ord_mod.parse_ordinal(raw.strip())
        except OrdinalSyntaxError as exc:
            raise TermSyntaxError(str(exc), start) from exc

    def parse_term(self) -> Term:
        self.skip_ws()
        if self.pos >= len(self.text):
            raise self.error("expected a term")
        c = self.text[self.pos]
        if c.isdigit():
            at = self.pos
            count = self.read_int()
            self.eat("*")
            body = self.parse_term()
            return self.build(Glue, at, (body,) * count)
        if c == "{" or c == "}":
            raise self.error("a set is not a term here")
        word_start = self.pos
        word = self.read_word()
        if word == "empty":
            return EMPTY
        if word == "one":
            return ONE
        if word == "idq":
            return ID_Q
        if word == "idbaire":
            return ID_BAIRE
        if word == "min" or word == "max":
            self.eat("(")
            rank = self.read_ordinal_until(")")
            self.eat(")")
            return self.build(MinFn if word == "min" else MaxFn, word_start, rank)
        if word == "omega":
            self.eat("(")
            body = self.parse_term()
            self.eat(")")
            return self.build(Omega, word_start, body)
        if word == "glue":
            self.eat("(")
            summands = [self.parse_term()]
            while self.peek() == ",":
                self.eat(",")
                summands.append(self.parse_term())
            self.eat(")")
            return self.build(Glue, word_start, summands)
        if word == "pgl":
            self.eat("{")
            members = [self.parse_term()]
            while self.peek() == ",":
                self.eat(",")
                members.append(self.parse_term())
            self.eat("}")
            return self.build(PglSet, word_start, members)
        if word == "wedge":
            self.eat("(")
            verticals = [self.parse_set()]
            while self.peek() == ",":
                self.eat(",")
                verticals.append(self.parse_set())
            self.eat("|")
            diagonal = self.parse_set()
            self.eat(")")
            return self.build(Wedge, word_start, verticals, diagonal)
        raise TermSyntaxError(f"unknown term {word!r}" if word else "expected a term", word_start)

    def parse_set(self) -> list[Term]:
        self.eat("{")
        items: list[Term] = []
        if self.peek() != "}":
            items.append(self.parse_term())
            while self.peek() == ",":
                self.eat(",")
                items.append(self.parse_term())
        self.eat("}")
        return items
