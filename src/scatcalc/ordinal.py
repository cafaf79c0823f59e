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
character, or "" at the end.  A text is split into its tokens by one
``TOKEN.findall`` and read by index; :func:`token_start` scans again
for a character position only when an error names one.
:func:`read_ordinal` reads an ordinal inside a term's token list, so
its errors name positions in the term's text; both grammars raise
:class:`OrdinalSyntaxError`.
"""

from __future__ import annotations

import re
from itertools import islice
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

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # the constructor, since __setattr__ refuses the default path
        return self.__class__, self._values(self)

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


def token_start(text: str, k: int) -> int:
    """The character position of token ``k`` of ``text``.  Readers keep
    token indices and scan again for a position only on an error."""
    return next(islice(TOKEN.finditer(text), k, None)).start(1)


def parse_ordinal(text: str) -> Ordinal:
    """Parse the additive grammar `atom {"+" atom}` with
    `atom := "w" ["^" INT] ["*" INT] | INT`.

    The denoted value is the left-to-right ordinal sum of the atoms, so
    non-canonical spellings like "w+w^2" are accepted and collapse to
    canonical form.  Exponent 0 is rejected: write the finite part as a
    plain integer.
    """
    return read_ordinal(text, TOKEN.findall(text), 0)[0]


def read_ordinal(text: str, toks: list[str], i: int, closing: str = "") -> tuple[Ordinal, int]:
    """The ordinal spelled by ``toks[i:]``, the tokens of ``text``, up
    to ``closing`` or the end, and the index of that token.  An error
    names its position in ``text``; a missing atom or integer is
    reported at the end of the text or, inside a term, right after the
    ordinal's last token.  An atom ``w`` is the first letter of a word
    token; the rest of the word is read as the next token.  A canonical
    spelling builds one ``Ordinal``; any other sum is added up."""
    first, atoms, canonical = i, [], True
    while True:
        tok = toks[i]
        if tok.isdecimal():
            exp, coeff = 0, int(tok)
            i += 1
        elif tok == "w":
            exp = coeff = 1
            i += 1
            if toks[i] == "^":
                exp = _positive(text, toks, first, i + 1, closing, _EXPONENT_ZERO)
                i += 2
            if toks[i] == "*":
                coeff = _positive(text, toks, first, i + 1, closing, "coefficient must be >= 1")
                i += 2
        elif tok[:1] == "w":
            raise OrdinalSyntaxError(f"unexpected character {tok[1]!r}", token_start(text, i) + 1)
        else:
            missing = not tok or tok == closing
            message = "expected an ordinal atom" if missing else f"unexpected character {tok[0]!r}"
            raise OrdinalSyntaxError(message, _position(text, toks, first, i, closing))
        canonical = canonical and (not atoms or exp < atoms[-1][0])
        atoms.append((exp, coeff))
        tok = toks[i]
        if tok != "+":
            break
        i += 1
    if tok and tok != closing:
        raise OrdinalSyntaxError(f"unexpected character {tok[0]!r}", token_start(text, i))
    if canonical:  # exponents strictly decrease, the finite part (exponent 0) last
        exp, coeff = atoms[-1]
        return (Ordinal(tuple(atoms), 0) if exp else Ordinal(tuple(atoms[:-1]), coeff)), i
    value = ZERO
    for exp, coeff in atoms:
        value = add(value, omega_power(exp, coeff) if exp else from_int(coeff))
    return value, i


_EXPONENT_ZERO = "exponent 0 not allowed; write the finite part as an integer"


def _position(text: str, toks: list[str], first: int, k: int, closing: str) -> int:
    """The position of token ``k`` of an ordinal read from token
    ``first`` on; inside a term, its closing token or the end stands
    right after the ordinal's last token."""
    if closing and k > first and toks[k] in (closing, ""):
        return token_start(text, k - 1) + len(toks[k - 1])
    return token_start(text, k)


def _positive(text: str, toks: list[str], first: int, k: int, closing: str, zero: str) -> int:
    """The integer token ``k`` holds; ``zero`` is the message that
    refuses 0."""
    if not toks[k].isdecimal():
        raise OrdinalSyntaxError("expected an integer", _position(text, toks, first, k, closing))
    n = int(toks[k])
    if n == 0:
        raise OrdinalSyntaxError(zero, token_start(text, k))
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
