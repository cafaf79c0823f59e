"""Cantor-normal-form ordinal arithmetic below w^w.

An ordinal is w^e1*c1 + ... + w^em*cm + n with strictly decreasing
exponents e1 > ... > em >= 1, coefficients ci >= 1 and a finite part
n >= 0.  This is exactly what the rank computations need: every rank
that shows up decomposes as "limit plus finite tail", and the tails
stay small.  An ordinal is a :class:`Value`, immutable like
``rank.CbType``, ``oracle.FiniteFn`` and ``generators.GeneratorSet``,
and totally ordered, so ordinals can be dict keys and sorted directly.

Multiplication is deliberately absent.  The only product ever needed is
doubling, which on lambda+n means 2*(lambda+n) = lambda+2n; see
:func:`double`.

Text is read in tokens, and ``TOKEN`` is the one token pattern of both
grammars, ordinals and terms: after optional whitespace it matches
decimal digits (those ``int`` reads, not every ``str.isdigit``
character), a word of letters, digits and underscores, one other
character, or "" at the end.  :func:`read_ordinal` reads an
ordinal in place inside a longer text, so its errors name positions in
that text; both grammars raise :class:`OrdinalSyntaxError`.
"""

from __future__ import annotations

import re
from operator import attrgetter, ge, gt, le, lt
from typing import Iterable, Literal


class OrdinalSyntaxError(ValueError):
    """Raised on malformed ordinal or term text; carries the message
    and its character position.  ``term.TermSyntaxError`` is this
    class."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class Value:
    """An immutable value.  A subclass names its fields in ``_fields``,
    in constructor order, and sets them with ``object.__setattr__``.
    Equal only within its class, hashed by its fields, pickled and
    copied through the constructor, shown as ``Class(field=value, ...)``."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        # the fields as one tuple, read at C level
        cls._values = attrgetter(*cls._fields)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # the constructor, since __setattr__ refuses the default path
        return self.__class__, self._values(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = zip(self._fields, self._values(self))
        return f"{self.__class__.__name__}({', '.join(f'{n}={v!r}' for n, v in fields)})"


def _order(op):
    """The comparison ``op`` of two ordinals' ``(terms, finite)``."""

    def compare(self, other):
        if other.__class__ is Ordinal:
            return op(self._values(self), self._values(other))
        return NotImplemented

    return compare


class Ordinal(Value):
    """An immutable CNF ordinal ``Ordinal(terms=(), finite=0)``.  Equal
    and ordered as the tuple ``(terms, finite)``, against ordinals
    only."""

    __slots__ = ("terms", "finite")
    _fields = __slots__

    # ((exponent, coefficient), ...) with exponents strictly decreasing, all >= 1
    terms: tuple[tuple[int, int], ...]
    finite: int

    def __init__(self, terms: tuple[tuple[int, int], ...] = (), finite: int = 0) -> None:
        prev = None
        for exp, coeff in terms:
            if exp < 1 or coeff < 1:
                raise ValueError(f"bad CNF term w^{exp}*{coeff}")
            if prev is not None and exp >= prev:
                raise ValueError("CNF exponents must strictly decrease")
            prev = exp
        if finite < 0:
            raise ValueError("finite part must be >= 0")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "finite", finite)

    __lt__, __le__, __gt__, __ge__ = map(_order, (lt, le, gt, ge))

    def __str__(self) -> str:
        return format_ordinal(self)

    def __repr__(self) -> str:
        return f"Ordinal({format_ordinal(self)!r})"

    @property
    def is_zero(self) -> bool:
        return not self.terms and self.finite == 0

    @property
    def is_successor(self) -> bool:
        return self.finite > 0

    @property
    def is_limit(self) -> bool:
        return bool(self.terms) and self.finite == 0


ZERO = Ordinal()
ONE_ORD = Ordinal((), 1)
OMEGA_ORD = Ordinal(((1, 1),), 0)


def from_int(n: int) -> Ordinal:
    return Ordinal((), n)


def omega_power(exp: int, coeff: int = 1) -> Ordinal:
    return Ordinal(((exp, coeff),), 0)


def cmp_ordinal(a: Ordinal, b: Ordinal) -> int:
    """Total order on CNF: -1, 0 or 1.  Tuple comparison on the term
    list is the lexicographic CNF order, finite parts break ties."""
    return (a > b) - (a < b)


def add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal sum a+b (left-absorbing, not commutative: 1+w = w)."""
    if not b.terms:
        return Ordinal(a.terms, a.finite + b.finite)
    lead_exp, lead_coeff = b.terms[0]
    kept = tuple(t for t in a.terms if t[0] > lead_exp)
    if a.terms and len(kept) < len(a.terms) and a.terms[len(kept)][0] == lead_exp:
        merged = (lead_exp, a.terms[len(kept)][1] + lead_coeff)
    else:
        merged = (lead_exp, lead_coeff)
    return Ordinal(kept + (merged,) + b.terms[1:], b.finite)


def split(a: Ordinal) -> tuple[Ordinal, int]:
    """Unique decomposition a = lam + n with lam limit or zero, n finite."""
    return Ordinal(a.terms, 0), a.finite


def double(a: Ordinal) -> Ordinal:
    """2*a in the left-multiplication sense: with a = lam+n this is lam+2n."""
    return Ordinal(a.terms, 2 * a.finite)


def classify(a: Ordinal) -> Literal["zero", "successor", "limit"]:
    if a.is_zero:
        return "zero"
    return "successor" if a.is_successor else "limit"


def succ(a: Ordinal) -> Ordinal:
    return Ordinal(a.terms, a.finite + 1)


def pred_if_successor(a: Ordinal) -> Ordinal:
    if not a.is_successor:
        raise ValueError(f"{a} is not a successor ordinal")
    return Ordinal(a.terms, a.finite - 1)


def sup(ordinals: Iterable[Ordinal]) -> Ordinal:
    """Supremum of a non-empty finite family, i.e. its maximum."""
    items = list(ordinals)
    if not items:
        raise ValueError("sup of an empty family")
    return max(items)


# one token at a position, after any whitespace: decimal digits, a
# word, one other character, or "" at the end; the term grammar reads
# the same tokens
TOKEN = re.compile(r"\s*(\d+|\w+|.|)", re.S)


def parse_ordinal(text: str) -> Ordinal:
    """Parse the additive grammar `atom {"+" atom}` with
    `atom := "w" ["^" INT] ["*" INT] | INT`.

    The denoted value is the left-to-right ordinal sum of the atoms, so
    non-canonical spellings like "w+w^2" are accepted and collapse to
    canonical form.  Exponent 0 is rejected: write the finite part as a
    plain integer.
    """
    return read_ordinal(text, 0, len(text))


def read_ordinal(text: str, pos: int, end: int) -> Ordinal:
    """The ordinal spelled by ``text[pos:end]``, read in place: an
    error names its position in ``text``, and a missing atom or integer
    is reported at ``end``.  An atom ``w`` is the first letter of a word
    token; the rest of the word is read as the next token."""
    result = None
    while True:
        m = TOKEN.match(text, pos, end)
        tok = m[1]
        if tok.isdecimal():
            atom = from_int(int(tok))
            m = TOKEN.match(text, m.end(), end)
        elif tok[:1] == "w":
            exp = coeff = 1
            m = TOKEN.match(text, m.start(1) + 1, end)
            if m[1] == "^":
                m = TOKEN.match(text, m.end(), end)
                exp = _positive(m, "exponent 0 not allowed; write the finite part as an integer")
                m = TOKEN.match(text, m.end(), end)
            if m[1] == "*":
                m = TOKEN.match(text, m.end(), end)
                coeff = _positive(m, "coefficient must be >= 1")
                m = TOKEN.match(text, m.end(), end)
            atom = omega_power(exp, coeff)
        else:
            message = f"unexpected character {tok[0]!r}" if tok else "expected an ordinal atom"
            raise OrdinalSyntaxError(message, m.start(1))
        result = atom if result is None else add(result, atom)
        tok = m[1]
        if not tok:
            return result
        if tok != "+":
            raise OrdinalSyntaxError(f"unexpected character {tok[0]!r}", m.start(1))
        pos = m.end()


def _positive(m: re.Match, zero: str) -> int:
    """The integer token ``m`` holds; ``zero`` is the message that
    refuses 0."""
    if not m[1].isdecimal():
        raise OrdinalSyntaxError("expected an integer", m.start(1))
    n = int(m[1])
    if n == 0:
        raise OrdinalSyntaxError(zero, m.start(1))
    return n


def format_ordinal(a: Ordinal) -> str:
    if a.is_zero:
        return "0"
    parts = []
    for exp, coeff in a.terms:
        s = "w" if exp == 1 else f"w^{exp}"
        if coeff != 1:
            s += f"*{coeff}"
        parts.append(s)
    if a.finite:
        parts.append(str(a.finite))
    return "+".join(parts)
