"""Seeded inputs for the benchmark, made as term text.

Nothing here imports scatcalc: the program only ever sees the text, and
the checks compare its verdicts with facts worked out on the trees
below.

A tree is a tuple: ``("empty",)``, ``("one",)``, ``("min", o)``,
``("max", o)``, ``("glue", [t, ...])``, ``("omega", t)``,
``("pgl", [t, ...])`` or ``("wedge", [[t, ...], ...], [t, ...])``.
An ordinal ``o`` below w^3 is the tuple ``(c2, c1, n)`` for
``w^2*c2 + w*c1 + n``; tuple order is ordinal order.
"""

from __future__ import annotations

import math
import random

INF = math.inf
ONE_ORD = (0, 0, 1)
# w, w*2 and w^2: the limits scatcalc.sample draws ranks from
LIMITS = ((0, 1, 0), (0, 2, 0), (1, 0, 0))


# -- ordinals ---------------------------------------------------------


def ord_text(o: tuple[int, int, int]) -> str:
    c2, c1, n = o
    parts = []
    if c2:
        parts.append("w^2" if c2 == 1 else f"w^2*{c2}")
    if c1:
        parts.append("w" if c1 == 1 else f"w*{c1}")
    if n or not parts:
        parts.append(str(n))
    return "+".join(parts)


def succ(o):
    return (o[0], o[1], o[2] + 1)


def is_successor(o) -> bool:
    return o[2] > 0


def random_ordinal(rng: random.Random):
    if rng.random() < 0.45:
        return (0, 0, rng.randint(0, 4))
    c2, c1, _ = rng.choice(LIMITS)
    return (c2, c1, rng.randint(0, 3))


def random_successor(rng: random.Random):
    o = random_ordinal(rng)
    return o if is_successor(o) else succ(o)


# -- random terms -----------------------------------------------------
# The constructor mix is that of scatcalc.sample.random_term: at depth 0
# a uniform pick of empty, one, min and max; above it 18 % empty or one,
# 12 % min, 12 % max, 16 % glue of 2-3, 14 % omega, 16 % pgl of 1-2
# members and 12 % wedge of 1-2 vertical sets over a 0-2 diagonal.


def random_tree(rng: random.Random, depth: int):
    if depth <= 0:
        pick = rng.randrange(4)
        if pick == 0:
            return ("empty",)
        if pick == 1:
            return ("one",)
        if pick == 2:
            return ("min", random_successor(rng))
        return ("max", random_ordinal(rng))
    roll = rng.random()
    if roll < 0.18:
        return rng.choice([("empty",), ("one",)])
    if roll < 0.30:
        return ("min", random_successor(rng))
    if roll < 0.42:
        return ("max", random_ordinal(rng))
    if roll < 0.58:
        return ("glue", [random_tree(rng, depth - 1) for _ in range(rng.randint(2, 3))])
    if roll < 0.72:
        return ("omega", random_tree(rng, depth - 1))
    if roll < 0.88:
        return ("pgl", [random_tree(rng, depth - 1) for _ in range(rng.randint(1, 2))])
    families: dict = {}
    for _ in range(rng.randint(1, 2)):
        family = [random_tree(rng, depth - 1) for _ in range(rng.randint(1, 2))]
        # a wedge's vertical sets must be distinct as sets of terms
        families.setdefault(frozenset(map(canon, family)), family)
    diagonal = [random_tree(rng, depth - 1) for _ in range(rng.randint(0, 2))]
    return ("wedge", list(families.values()), diagonal)


def canon(t) -> str:
    """Text that is equal for two trees exactly when their terms are:
    gluings are multisets, pointed-gluing members and wedge sides sets."""
    kind = t[0]
    if kind == "glue":
        return "glue(" + ", ".join(sorted(map(canon, t[1]))) + ")"
    if kind == "omega":
        return f"omega({canon(t[1])})"
    if kind == "pgl":
        return "pgl{" + ", ".join(sorted(set(map(canon, t[1])))) + "}"
    if kind == "wedge":
        sides = sorted({"{" + ", ".join(sorted(set(map(canon, v)))) + "}" for v in t[1]})
        diagonal = ", ".join(sorted(set(map(canon, t[2]))))
        return f"wedge({', '.join(sides)} | {{{diagonal}}})"
    return text(t)


def text(t) -> str:
    kind = t[0]
    if kind in ("empty", "one"):
        return kind
    if kind in ("min", "max"):
        return f"{kind}({ord_text(t[1])})"
    if kind == "glue":
        return "glue(" + ", ".join(map(text, t[1])) + ")"
    if kind == "omega":
        return f"omega({text(t[1])})"
    if kind == "pgl":
        return "pgl{" + ", ".join(map(text, t[1])) + "}"
    sides = ", ".join("{" + ", ".join(map(text, v)) + "}" for v in t[1])
    return f"wedge({sides} | {{{', '.join(map(text, t[2]))}}})"


# -- CB-types ---------------------------------------------------------
# From the rules in the scatcalc.rank docstring, on the tree alone.


def cb_type(t) -> tuple:
    """(rank, degree); degree is an int or INF for omega."""
    kind = t[0]
    if kind == "empty":
        return ((0, 0, 0), 0)
    if kind == "one":
        return (ONE_ORD, 1)
    if kind == "min":
        return (t[1], 1)
    if kind == "max":
        return (t[1], INF if is_successor(t[1]) else 0)
    if kind == "glue":
        return _glue_type([cb_type(s) for s in t[1]])
    if kind == "omega":
        rank, degree = cb_type(t[1])
        return (rank, INF if degree > 0 else 0)
    if kind == "pgl":
        return (succ(_glue_type([cb_type(m) for m in t[1]])[0]), 1)
    verticals = [succ(_glue_type([cb_type(x) for x in v])[0]) for v in t[1]]
    diag_rank, diag_degree = _glue_type([cb_type(d) for d in t[2]])
    rank = max(verticals + [diag_rank])
    degree = 1 if rank in verticals else 0
    if diag_rank == rank and diag_degree >= 1:
        degree = INF
    return (rank, degree)


def _glue_type(types: list[tuple]) -> tuple:
    if not types:
        return ((0, 0, 0), 0)
    rank = max(r for r, _ in types)
    if not is_successor(rank):
        return (rank, 0)
    return (rank, sum(d for r, d in types if r == rank))


# -- the census inputs ------------------------------------------------


def census_inputs(seed: int, pool_size: int, pairs: int) -> dict:
    """The random pool with its pairs, plus the check-only inputs:
    rank-1 finite functions and compact-fragment min-atom multiples."""
    rng = random.Random(seed)
    pool = [random_tree(rng, 5) for _ in range(pool_size)]
    pair_ix = [(rng.randrange(pool_size), rng.randrange(pool_size)) for _ in range(pairs)]
    finite = [random_finite_fn(rng) for _ in range(2 * 60)]
    compact = []
    for _ in range(2 * 100):
        a = random_ordinal(rng)
        compact.append((rng.randint(1, 4), a))
    return {
        "pool": pool,
        "pool_text": [text(t) for t in pool],
        "pairs": pair_ix,
        "finite": finite,
        "compact": compact,
    }


def random_finite_fn(rng: random.Random) -> tuple[int, int, tuple[int, ...]]:
    dom = rng.randint(1, 5)
    cod = rng.randint(1, 4)
    return (dom, cod, tuple(rng.randrange(cod) for _ in range(dom)))


def image_size(f) -> int:
    return len(set(f[2]))


def compact_text(m: int, a) -> str:
    """``m*min(a+1)``: m copies of the minimum function of rank a+1."""
    return f"{m}*min({ord_text(succ(a))})"


def compact_le(x, y) -> bool:
    """m*min(a+1) <= n*min(b+1) iff (a+1, m) <= (b+1, n) lexicographically."""
    (m, a), (n, b) = x, y
    return (succ(a), m) <= (succ(b), n)


def min_recurrence_text(n: int) -> str:
    """Normal form of min(n) for finite n >= 1: min(1) = one and
    min(k+1) = pgl{min(k)}."""
    return "pgl{" * (n - 1) + "one" + "}" * (n - 1)
