"""Brute-force ground truth on finite discrete spaces.

A function between finite discrete spaces is automatically continuous
and locally constant, so continuous reducibility between two of them is
decidable by exhaustive search: try every map between the domains and
check that it induces a well-defined map back on images.  On this
fragment the answer is known in closed form (image cardinalities
compare), which gives two independent routes the test suite plays
against each other and against the symbolic engine.

Rank 2 already needs infinite spaces (convergent sequences), so no
brute-force oracle exists there; the compact-domain comparison covers
that ground instead.
"""

from __future__ import annotations

from .ordinal import Value
from .term import Glue, ONE, Term


class FiniteFn(Value):
    """A function between finite discrete spaces ``range(dom_size)``
    and ``range(cod_size)``, listed by its ``values``.  Immutable;
    equal and hashed by its three fields."""

    __slots__ = ("dom_size", "cod_size", "values")
    _fields = __slots__

    dom_size: int
    cod_size: int
    values: tuple[int, ...]

    def __init__(self, dom_size: int, cod_size: int, values: tuple[int, ...]) -> None:
        if dom_size <= 0 or cod_size <= 0:
            raise ValueError("dom_size and cod_size must be positive")
        if len(values) != dom_size:
            raise ValueError("values must list one codomain point per domain point")
        if any(not 0 <= v < cod_size for v in values):
            raise ValueError("values must lie in [0, cod_size)")
        object.__setattr__(self, "dom_size", dom_size)
        object.__setattr__(self, "cod_size", cod_size)
        object.__setattr__(self, "values", values)

    @property
    def image(self) -> frozenset[int]:
        return frozenset(self.values)


def parse_finite_fn(text: str) -> FiniteFn:
    """Wire format: "a b v0 v1 ... v_{a-1}" separated by whitespace."""
    parts = text.split()
    if len(parts) < 2:
        raise ValueError("expected 'dom_size cod_size v0 v1 ...'")
    try:
        numbers = [int(p) for p in parts]
    except ValueError as exc:
        raise ValueError(f"non-integer in finite function: {exc}") from exc
    return FiniteFn(numbers[0], numbers[1], tuple(numbers[2:]))


def format_finite_fn(f: FiniteFn) -> str:
    return " ".join(str(x) for x in (f.dom_size, f.cod_size) + f.values)


def brute_force_le(f: FiniteFn, g: FiniteFn) -> bool:
    """Search for sigma: dom(f) -> dom(g) such that the induced relation
    g(sigma(x)) -> f(x) is functional; on discrete spaces that relation
    is then automatically a continuous tau with f = tau . g . sigma.

    Backtracking over sigma point by point, pruning as soon as the
    partial tau conflicts.  Worst case O(dom(g)^dom(f)).
    """
    tau: dict[int, int] = {}

    def assign(x: int) -> bool:
        if x == f.dom_size:
            return True
        want = f.values[x]
        for y in range(g.dom_size):
            gy = g.values[y]
            bound = tau.get(gy)
            if bound is None:
                tau[gy] = want
                if assign(x + 1):
                    return True
                del tau[gy]
            elif bound == want:
                if assign(x + 1):
                    return True
        return False

    return assign(0)


def image_formula_le(f: FiniteFn, g: FiniteFn) -> bool:
    """Closed form: locally constant functions compare by image size."""
    return len(f.image) <= len(g.image)


def term_of(f: FiniteFn) -> Term:
    """Calculus term for a finite discrete function: the |image|-fold
    gluing of the singleton identity."""
    n = len(f.image)
    return ONE if n == 1 else Glue([ONE] * n)
