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
those fields, so equal terms are one object, and equality and hashing
are by identity.  A node's sort key, size and type key are computed
once, at construction, from its children's.  The type key is the
node's CB-type as ``(rank terms, rank finite part, degree)``, derived
by the rules in the ``rank`` docstring, or ``None`` for the
non-scattered sentinels; ``rank.cb_type`` maps it to the ``CbType``
that every node of that type shares.  No field is written after a node
is published, so a node never changes.  The intern table maps each
node's fields to a weak reference to it, and the entry leaves the table
when the node dies.  A lookup that finds a live node takes no lock;
building and inserting a node does, and re-checks the table under it,
so two threads never get two copies.  Copying and unpickling return the
interned node.

Pointed gluings of non-constant sequences are not representable.  Every
centered function is still covered up to equivalence by ``PglSet``, but
a finitely-supported or monotone non-constant pointed gluing has no
term of its own; callers needing one must pick an equivalent ``PglSet``
form by hand.  Points, spaces and reducing maps are never materialized.

The concrete syntax is read by recursive descent, one frame per
nesting level, over the list of tokens that ``ordinal.tokens`` makes of
the text in one pass, so whitespace may stand between any two tokens
and only decimal digits spell a count.  ``min(...)`` and ``max(...)``
read their rank from the same list with ``ordinal.read_ordinal``.  A
rank holds no parenthesis, so the first ")" closes the atom, and the
atom's tokens from its word to that ")" are its spelling: a spelling
that parsed before gives back the atom it built, without being read
again.  The spelling map holds its atoms weakly, as the intern table
does, and records only spellings that parsed, so a rejected one raises
the same error at each parse.  Every syntax error is one
``TermSyntaxError``, the class ``ordinal.OrdinalSyntaxError``, naming a
character position in the term text, worked out only for the error.
"""

from __future__ import annotations

import math
import threading
import weakref
from _weakref import _remove_dead_weakref
from itertools import chain
from operator import attrgetter

from . import ordinal as ord_mod
from .ordinal import Ordinal, OrdinalSyntaxError, read_int, read_ordinal, token_start, tokens

# one syntax-error class for the term and the ordinal grammar
TermSyntaxError = OrdinalSyntaxError


# the degree of a CB-type whose last derivative has infinite image
OMEGA_DEGREE = math.inf

# the most summands a parsed gluing may flatten to; ``k*t`` builds k
MAX_SUMMANDS = 100_000


class TermTooLargeError(RuntimeError):
    """Raised on term text whose gluings flatten to more than
    ``MAX_SUMMANDS`` summands."""


class _NodeRef(weakref.ref):
    """A weak reference to an interned node that knows its key in the
    intern table or the spelling map."""

    __slots__ = ("ident",)


def _forget(ref: _NodeRef) -> None:
    # removes the entry only while it still holds this dead reference,
    # so a node rebuilt under the same ident keeps its entry
    _remove_dead_weakref(_table, ref.ident)


# (variant, *fields) -> a weak reference to the live node; see _intern
_table: dict[tuple, _NodeRef] = {}
_table_lock = threading.Lock()
_key_of = attrgetter("_key")
_size_of = attrgetter("_size")
_type_of = attrgetter("_type_key")


class Term:
    """Base class of the interned nodes.  A subclass lists its fields
    in ``__slots__`` in constructor order, numbers itself in
    ``_variant`` and returns ``(sort key, size, type key)`` from
    ``_measure``; an atom gives its type key as ``_atom_type``."""

    __slots__ = ("_key", "_size", "_type_key", "__weakref__")
    _variant: int
    _atom_type: tuple | None = None

    def __new__(cls) -> "Term":  # the atoms; the other variants take fields
        return _intern(cls)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} terms are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} terms are immutable")

    def __reduce__(self):
        # unpickling calls the constructor, which returns the interned node
        return type(self), tuple(getattr(self, name) for name in type(self).__slots__)

    def __deepcopy__(self, memo) -> "Term":
        return self

    def _measure(self) -> tuple[tuple, int, tuple | None]:
        return (self._variant,), 1, self._atom_type

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
    ref = _table.get(ident)
    if ref is not None:
        node = ref()
        if node is not None:
            return node
    with _table_lock:
        ref = _table.get(ident)
        node = None if ref is None else ref()
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls.__slots__, fields):
                object.__setattr__(node, name, value)
            key, size, type_key = node._measure()
            object.__setattr__(node, "_key", key)
            object.__setattr__(node, "_size", size)
            object.__setattr__(node, "_type_key", type_key)
            ref = _NodeRef(node, _forget)
            ref.ident = ident
            # published only now, fully built, for the lock-free lookups
            _table[ident] = ref
    return node


class Empty(Term):
    __slots__ = ()
    _variant = 0
    _atom_type = ((), 0, 0)


class One(Term):
    __slots__ = ()
    _variant = 1
    _atom_type = ((), 1, 1)


class IdQ(Term):
    __slots__ = ()
    _variant = 2


class IdBaire(Term):
    __slots__ = ()
    _variant = 3


def _check_inner(items, where: str) -> None:
    # the sentinels are interned atoms, so membership is identity
    if ID_Q in items or ID_BAIRE in items:
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

    def _measure(self) -> tuple[tuple, int, tuple]:
        ss = self.summands
        key = (self._variant, len(ss), tuple(map(_key_of, ss)))
        return key, 1 + sum(map(_size_of, ss)), _glue_type(ss)


class Omega(Term):
    __slots__ = ("body",)
    _variant = 6

    def __new__(cls, body: Term) -> "Omega":
        _check_inner((body,), "omega")
        return _intern(cls, body)

    def _measure(self) -> tuple[tuple, int, tuple]:
        body = self.body
        terms, finite, degree = body._type_key
        type_key = (terms, finite, OMEGA_DEGREE if degree else 0)
        return (self._variant, body._key), 1 + body._size, type_key


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

    def _measure(self) -> tuple[tuple, int, tuple]:
        ms = self.members
        terms, finite, _ = _glue_type(ms)
        key = (self._variant, len(ms), tuple(map(_key_of, ms)))
        return key, 1 + sum(map(_size_of, ms)), (terms, finite + 1, 1)


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
        vert = tuple(sorted(map(_sorted_set, verticals), key=_family_key))
        if not vert:
            raise ValueError("wedge needs at least one vertical set")
        if not vert[0]:  # an empty set sorts first
            raise ValueError("wedge vertical sets must be non-empty")
        for v in vert:
            _check_inner(v, "wedge")
        if len(set(vert)) != len(vert):
            raise ValueError("wedge vertical sets must be pairwise distinct")
        diag = _sorted_set(diagonal)
        _check_inner(diag, "wedge")
        return _intern(cls, vert, diag)

    def _measure(self) -> tuple[tuple, int, tuple]:
        vs, ds = self.verticals, self.diagonal
        key = (self._variant, tuple(map(_family_key, vs)), tuple(map(_key_of, ds)))
        size = 1 + sum(map(_size_of, chain(ds, *vs)))
        # each vertical is a pointed gluing: one above its gluing's rank
        terms, finite, _ = max(map(_glue_type, vs))
        vert = (terms, finite + 1)
        terms, finite, degree = _glue_type(ds)
        diag = (terms, finite)
        if diag < vert:
            return key, size, (*vert, 1)
        # the diagonal's copies make a nonzero top degree infinite; a tie
        # with the verticals is a successor rank, never of degree 0
        return key, size, (*diag, OMEGA_DEGREE if degree else 0)


class MinFn(Term):
    """Minimum function among scattered functions of rank >= ``rank``;
    the rank argument must classify as a successor."""

    __slots__ = ("rank",)
    _variant = 4

    def __new__(cls, rank: Ordinal) -> "MinFn":
        if not rank.is_successor:
            raise ValueError(f"min() needs a successor rank, got {rank}")
        return _intern(cls, rank)

    def _measure(self) -> tuple[tuple, int, tuple]:
        terms, finite = self.rank.terms, self.rank.finite
        return (self._variant, terms, finite), 1, (terms, finite, 1)


class MaxFn(Term):
    """Maximum function among scattered functions of rank <= ``rank``."""

    __slots__ = ("rank",)
    _variant = 5

    def __new__(cls, rank: Ordinal) -> "MaxFn":
        return _intern(cls, rank)

    def _measure(self) -> tuple[tuple, int, tuple]:
        terms, finite = self.rank.terms, self.rank.finite
        type_key = (terms, finite, OMEGA_DEGREE if finite else 0)
        return (self._variant, terms, finite), 1, type_key


EMPTY = Empty()
ONE = One()
ID_Q = IdQ()
ID_BAIRE = IdBaire()
_ATOMS = {"empty": EMPTY, "one": ONE, "idq": ID_Q, "idbaire": ID_BAIRE}
_ATOM_NAMES = {atom: name for name, atom in _ATOMS.items()}


def merged_wedge(verticals, diagonal) -> "Wedge":
    """Wedge constructor that merges duplicate vertical sets.  Rewriting
    can collapse two distinct sets to the same one; a family listing a
    set twice is equivalent for domination to the deduplicated family,
    so the denotations agree."""
    return Wedge(set(map(frozenset, verticals)), diagonal)


def glue(*summands: Term) -> Glue:
    return Glue(summands)


def glue_of(members) -> Term:
    """The gluing of ``members``, or the member itself when it is alone."""
    return members[0] if len(members) == 1 else Glue(members)


def summands_of(t: Term) -> tuple[Term, ...]:
    """The summands of a gluing, or ``t`` alone."""
    return t.summands if isinstance(t, Glue) else (t,)


def multiplicities(items) -> dict[Term, int]:
    """Each distinct item, in order of first occurrence, with its count."""
    counts: dict[Term, int] = {}
    for x in items:
        counts[x] = counts.get(x, 0) + 1
    return counts


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


def _glue_type(parts) -> tuple:
    """The type key of the finite gluing of ``parts``: the largest
    rank, and the sum of the degrees that attain it (zero and limit
    ranks have degree 0, so the sum is 0 there)."""
    if len(parts) == 1:
        return parts[0]._type_key
    top, degree = ((), 0), 0
    for terms, finite, d in map(_type_of, parts):
        rank = (terms, finite)
        if rank > top:
            top, degree = rank, d
        elif rank == top:
            degree += d
    return (*top, degree)


def _family_key(family: tuple[Term, ...]) -> tuple:
    return (len(family), *map(_key_of, family))


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
    """The concrete syntax of ``t``, as ``parse_term`` reads it.  An
    explicit stack of terms still to print and text still to emit
    replaces recursion, so any nesting the parser accepts prints."""
    out: list[str] = []
    todo: list = [t]  # popped from the end: pushed in reverse order
    while todo:
        x = todo.pop()
        if isinstance(x, str):
            out.append(x)
        elif x in _ATOM_NAMES:
            out.append(_ATOM_NAMES[x])
        elif isinstance(x, (MinFn, MaxFn)):
            name = "min" if isinstance(x, MinFn) else "max"
            out.append(f"{name}({ord_mod.format_ordinal(x.rank)})")
        elif isinstance(x, Omega):
            todo += (")", x.body, "omega(")
        elif isinstance(x, Glue):
            ss = x.summands
            if not ss:
                out.append("0*empty")
            elif ss[0] is ss[-1]:  # sorted and interned: one distinct summand
                todo += (ss[0], f"{len(ss)}*")
            else:
                _push_items(todo, "glue(", ss, ")")
        elif isinstance(x, PglSet):
            _push_items(todo, "pgl{", x.members, "}")
        elif isinstance(x, Wedge):
            todo.append(")")
            _push_items(todo, "{", x.diagonal, "}")
            todo.append(" | ")
            for i, v in enumerate(reversed(x.verticals)):
                _push_items(todo, "{", v, "}" if i == 0 else "}, ")
            todo.append("wedge(")
        else:
            raise TypeError(f"not a term: {x!r}")
    return "".join(out)


def _push_items(todo: list, opening: str, items: tuple[Term, ...], closing: str) -> None:
    """Push the text ``opening``, ``items`` separated by commas, and
    ``closing``, to be popped in that order."""
    todo.append(closing)
    for i in range(len(items) - 1, 0, -1):
        todo += (items[i], ", ")
    if items:
        todo.append(items[0])
    todo.append(opening)


def parse_term(text: str) -> Term:
    """Parse the term grammar; returns the denoted raw term without
    normalizing.  ``INT * term`` denotes an INT-fold gluing.  Raises
    :class:`TermTooLargeError` before building a gluing that flattens
    to more than ``MAX_SUMMANDS`` summands."""
    parser = _Parser(text)
    t = parser.parse_term()
    if parser.toks[parser.i]:
        raise parser.error("trailing input after term", parser.i)
    return t


def _forget_spelling(ref: _NodeRef) -> None:
    _remove_dead_weakref(_spellings, ref.ident)


# the tokens of a min/max atom, its word to its ")" -> a weak reference
# to the atom; only spellings that parsed are recorded
_spellings: dict[tuple[str, ...], _NodeRef] = {}


class _Parser:
    """Recursive descent, one frame per nesting level, over the tokens
    of one text: ``toks[i]`` is the next one, and the last is ""."""

    def __init__(self, text: str) -> None:
        self.text, self.toks, self.i = text, tokens(text), 0
        self.widths: dict[Term, int] = {}  # parsed gluing -> the summands it flattens to

    def error(self, message: str, k: int) -> TermSyntaxError:
        return TermSyntaxError(message, token_start(self.text, k))

    def missing(self, tok: str, k: int) -> TermSyntaxError:
        """The error for token ``k``, which should have been ``tok``."""
        return self.error(f"expected {tok!r}", k)

    def build_glue(self, at: int, summands: list[Term], repeat: int = 1) -> Term:
        """The gluing of ``repeat`` copies of ``summands``, refused
        before it is built when it flattens to too many summands."""
        width = repeat * sum(self.widths.get(s, 1) for s in summands)
        if width > MAX_SUMMANDS:
            raise TermTooLargeError(
                f"a gluing of {width} summands exceeds the bound of {MAX_SUMMANDS}"
            )
        try:
            t = Glue(summands * repeat)
        except ValueError as exc:
            raise self.error(str(exc), at) from exc
        self.widths[t] = width
        return t

    def rank_atom(self, word: str, at: int) -> Term:
        """The ``min(...)`` or ``max(...)`` atom whose word is token
        ``at``.  The rank holds no parenthesis, so the first ")" ends
        the atom, and a spelling that parsed before is not read again."""
        toks, i = self.toks, at + 1
        if toks[i] != "(":
            raise self.missing("(", i)
        try:
            end = toks.index(")", i)
        except ValueError:  # no ")", so no recorded spelling: the rank fails to read
            end = i
        spelling = tuple(toks[at : end + 1])
        ref = _spellings.get(spelling)
        node = None if ref is None else ref()
        if node is not None:
            self.i = end + 1
            return node
        rank, i = read_ordinal(self.text, toks, i + 1, ")")
        if toks[i] != ")":
            raise self.missing(")", i)
        self.i = i + 1
        try:
            node = (MinFn if word == "min" else MaxFn)(rank)
        except ValueError as exc:
            raise self.error(str(exc), at) from exc
        if i == end:  # the rank ended at the first ")", as it does whenever it reads
            ref = _NodeRef(node, _forget_spelling)
            ref.ident = spelling
            _spellings[spelling] = ref
        return node

    def parse_term(self) -> Term:
        toks, at = self.toks, self.i
        word = toks[at]
        i = at + 1
        atom = _ATOMS.get(word)
        if atom is not None:
            self.i = i
            return atom
        if word == "min" or word == "max":
            return self.rank_atom(word, at)
        if word.isdecimal():
            count = read_int(self.text, toks, at)
            if toks[i] != "*":
                raise self.missing("*", i)
            self.i = i + 1
            return self.build_glue(at, [self.parse_term()], count)
        if word == "omega" or word == "glue" or word == "pgl":
            opening, closing = ("{", "}") if word == "pgl" else ("(", ")")
            if toks[i] != opening:
                raise self.missing(opening, i)
            self.i = i + 1
            items = [self.parse_term()]
            while word != "omega" and toks[self.i] == ",":
                self.i += 1
                items.append(self.parse_term())
            i = self.i
            if toks[i] != closing:
                raise self.missing(closing, i)
            self.i = i + 1
            if word == "glue":
                return self.build_glue(at, items)
            # omega read one item, its body
            ctor, args = (PglSet, (items,)) if word == "pgl" else (Omega, items)
        elif word == "wedge":
            if toks[i] != "(":
                raise self.missing("(", i)
            sets, diagonal = [], False  # the vertical sets, then the diagonal
            while True:
                i += 1
                if toks[i] != "{":
                    raise self.missing("{", i)
                self.i = i + 1
                items = [] if toks[i + 1] == "}" else [self.parse_term()]
                while items and toks[self.i] == ",":
                    self.i += 1
                    items.append(self.parse_term())
                i = self.i
                if toks[i] != "}":
                    raise self.missing("}", i)
                sets.append(items)
                i += 1
                if diagonal:
                    break
                diagonal = toks[i] != ","
                if diagonal and toks[i] != "|":
                    raise self.missing("|", i)
            if toks[i] != ")":
                raise self.missing(")", i)
            self.i = i + 1
            ctor, args = Wedge, (sets[:-1], sets[-1])
        elif word == "{" or word == "}":
            raise self.error("a set is not a term here", at)
        else:
            is_word = word.isalnum() or "_" in word  # a word token, not one other character
            raise self.error(f"unknown term {word!r}" if is_word else "expected a term", at)
        try:
            return ctor(*args)
        except ValueError as exc:
            raise self.error(str(exc), at) from exc
