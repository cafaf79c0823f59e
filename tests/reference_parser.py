"""The character-position token parser that ``term.parse_term`` and
``ordinal.parse_ordinal`` replaced, kept as a test oracle.

It reads one ``TOKEN`` match per token and keeps each match's
position; ``min(...)`` and ``max(...)`` hand the text up to their
closing parenthesis to ``read_ordinal``, which tokenizes it again and
adds its atoms one at a time.  The readers in ``scatcalc`` must build
the same node and raise the same errors at the same positions.
"""

from __future__ import annotations

import re

from scatcalc.ordinal import Ordinal, OrdinalSyntaxError, add, from_int, omega_power
from scatcalc.term import (
    EMPTY,
    ID_BAIRE,
    ID_Q,
    MAX_SUMMANDS,
    ONE,
    Glue,
    MaxFn,
    MinFn,
    Omega,
    PglSet,
    Term,
    TermSyntaxError,
    TermTooLargeError,
    Wedge,
)

# one token at a position, after any whitespace: decimal digits, a
# word, one other character, or "" at the end.  The oracle keeps its
# own pattern, so the differential tests compare two tokenizers.
TOKEN = re.compile(r"\s*(\d+|\w+|.|)", re.S)


def parse_ordinal(text: str) -> Ordinal:
    return read_ordinal(text, 0, len(text))


def read_ordinal(text: str, pos: int, end: int) -> Ordinal:
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
    if not m[1].isdecimal():
        raise OrdinalSyntaxError("expected an integer", m.start(1))
    n = int(m[1])
    if n == 0:
        raise OrdinalSyntaxError(zero, m.start(1))
    return n


def parse_term(text: str) -> Term:
    parser = _Parser(text)
    t = parser.parse_term()
    if parser.tok:
        raise parser.error("trailing input after term")
    return t


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.widths: dict[Term, int] = {}
        m = self.m = TOKEN.match(text)
        self.tok = m[1]

    def error(self, message: str) -> TermSyntaxError:
        return TermSyntaxError(message, self.m.start(1))

    def eat(self, tok: str) -> None:
        if self.tok != tok:
            raise self.error(f"expected {tok!r}")
        m = self.m = TOKEN.match(self.text, self.m.end())
        self.tok = m[1]

    def build(self, ctor, at: int, *args):
        try:
            return ctor(*args)
        except ValueError as exc:
            raise TermSyntaxError(str(exc), at) from exc

    def build_glue(self, at: int, summands: list[Term], repeat: int = 1) -> Term:
        width = repeat * sum(self.widths.get(s, 1) for s in summands)
        if width > MAX_SUMMANDS:
            raise TermTooLargeError(
                f"a gluing of {width} summands exceeds the bound of {MAX_SUMMANDS}"
            )
        t = self.build(Glue, at, summands * repeat)
        self.widths[t] = width
        return t

    def read_rank(self) -> Ordinal:
        m = self.m
        start = end = m.start(1)
        while m[1] != ")" and m[1]:
            end = m.end()
            m = TOKEN.match(self.text, end)
        self.m, self.tok = m, m[1]
        return read_ordinal(self.text, start, end)

    def parse_term(self) -> Term:
        word, at = self.tok, self.m.start(1)
        if word.isdecimal():
            count = int(word)
            self.eat(word)
            self.eat("*")
            body = self.parse_term()
            return self.build_glue(at, [body], count)
        if word == "{" or word == "}":
            raise self.error("a set is not a term here")
        if word:
            self.eat(word)
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
            rank = self.read_rank()
            self.eat(")")
            return self.build(MinFn if word == "min" else MaxFn, at, rank)
        if word == "omega":
            self.eat("(")
            body = self.parse_term()
            self.eat(")")
            return self.build(Omega, at, body)
        if word == "glue":
            self.eat("(")
            summands = self.parse_list(self.parse_term)
            self.eat(")")
            return self.build_glue(at, summands)
        if word == "pgl":
            self.eat("{")
            members = self.parse_list(self.parse_term)
            self.eat("}")
            return self.build(PglSet, at, members)
        if word == "wedge":
            self.eat("(")
            verticals = self.parse_list(self.parse_set)
            self.eat("|")
            diagonal = self.parse_set()
            self.eat(")")
            return self.build(Wedge, at, verticals, diagonal)
        is_word = word.isalnum() or "_" in word
        raise TermSyntaxError(f"unknown term {word!r}" if is_word else "expected a term", at)

    def parse_set(self) -> list[Term]:
        self.eat("{")
        items = [] if self.tok == "}" else self.parse_list(self.parse_term)
        self.eat("}")
        return items

    def parse_list(self, parse) -> list:
        items = [parse()]
        while self.tok == ",":
            self.eat(",")
            items.append(parse())
        return items
