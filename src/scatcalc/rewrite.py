"""Normalization of calculus terms.

Each rule rewrites a term to a continuously equivalent one (both
reduction directions hold), so normal forms are canonical
representatives within the rewrite system's reach.  Two equivalent
terms may still normalize differently; the comparison engine covers
the rest.

Rule set (names are the public identifiers accepted by
:func:`apply_rule`):

``R-flat``
    Gluing is associative and the empty function is its unit: nested
    gluings splice, empty summands drop, singletons unwrap.
``R-minmax``
    Expands min/max atoms by their defining recurrences until the
    argument is 1, a limit, or limit-plus-one; ``pgl{empty}`` is ``one``.
``R-omega``
    Countable gluing absorbs finite multiplicity: omega of empty/omega
    collapses, omega distributes over gluing, and inside a gluing an
    omega-of-f swallows plain copies of f and duplicate omegas of f.
``R-pgl-members``
    A pointed-gluing member strictly dominated by a fellow member is
    redundant (mutual domination keeps the syntactically least).
``R-pgl-wedge``
    A wedge member of a pointed gluing is replaced by its vertical
    pointed gluings and omega copies of its diagonal members.
``R-pgl-absorb``
    A gluing summand reducible to finitely many copies of a pointed
    gluing's glued set is swallowed by that pointed gluing (a pointed
    gluing splits off any finite prefix of itself).
``R-wedge-reduce``
    Reduced form for wedges: vertical families shrink to a
    domination-maximal antichain, dominated diagonal members drop,
    a single vertical over an empty diagonal is a plain pointed
    gluing, and a wedge whose verticals all reduce to finite gluings
    over the diagonal collapses to omega copies of the diagonal.

One pass normalizes bottom-up: each node's children are normalized
first, then ``R-minmax``, or failing it the first of the six other
rules in the order listed above, rewrites the node until none applies.
``R-minmax`` stops on its own (it strictly decreases an atom's ordinal,
or turns ``pgl{empty}`` into ``one``); the six others share a hard
application cap of ``10 * term_size`` of the input, converting any
unforeseen cycle into a diagnosable failure.

``R-pgl-members``, ``R-pgl-absorb`` and ``R-wedge-reduce`` decide
reducibilities.  Normalization runs on an :class:`~scatcalc.compare.Engine`:
every rule asks that engine, within its depth bound, and the normal
forms are cached on it, so an engine's normal forms and verdicts depend
on nothing outside it.  :func:`normalize` and :func:`apply_rule` take
that engine as a required argument.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Optional

from . import ordinal as ord_mod
from .term import (
    EMPTY,
    Empty,
    Glue,
    MaxFn,
    MinFn,
    ONE,
    Omega,
    One,
    PglSet,
    Term,
    Wedge,
    glue_of,
    merged_wedge,
    sort_key,
    summands_of,
    syntactic_cmp,
    term_size,
)

if TYPE_CHECKING:
    from .compare import Engine


class NormalizationLimitError(RuntimeError):
    """The joint fixpoint exceeded its application cap."""


DEFAULT_CAP_FACTOR = 10


def normalize(t: Term, engine: Engine) -> Term:
    """Rewrite ``t`` to a fixpoint of the rule set.

    The result denotes the same reducibility class: every rule is an
    equivalence.  Idempotent, and rank-preserving on scattered terms.
    The rules' comparisons run on ``engine``, which also caches the
    result.  At most ``DEFAULT_CAP_FACTOR * term_size(t)`` applications
    of the six rules other than ``R-minmax`` are made before
    :class:`NormalizationLimitError` is raised.
    """
    return _fix(t, [0, DEFAULT_CAP_FACTOR * term_size(t)], engine)


def _map_children(t: Term, f: Callable[[Term], Term]) -> Term:
    # map() and partial() add no stack frame per level of nesting
    if isinstance(t, Glue):
        return Glue(list(map(f, t.summands)))
    if isinstance(t, Omega):
        return Omega(f(t.body))
    if isinstance(t, PglSet):
        return PglSet(list(map(f, t.members)))
    if isinstance(t, Wedge):
        return merged_wedge(
            [list(map(f, v)) for v in t.verticals], list(map(f, t.diagonal))
        )
    return t


def _fix(t: Term, counter: list[int], engine: Engine) -> Term:
    cache = engine._nf
    hit = cache.get(t)
    if hit is not None:
        return hit
    original = t
    while True:
        t2 = _map_children(t, partial(_fix, counter=counter, engine=engine))
        # R-minmax stops on its own, so it does not count against the cap
        rewritten = _rule_minmax(t2, engine)
        if rewritten is None:
            for rule in _CAPPED_RULES:
                rewritten = rule(t2, engine)
                if rewritten is not None:
                    break
            else:
                cache[original] = t2
                cache[t2] = t2
                return t2
            counter[0] += 1
            if counter[0] > counter[1]:
                raise NormalizationLimitError(
                    f"no fixpoint within {counter[1]} rule applications"
                )
        t = rewritten


# ---------------------------------------------------------------------------
# Individual rules, each applying at the root only and asking ``engine``
# for any reducibility they need


def _le(engine: Engine, a: Term, b: Term) -> bool:
    """Whether ``engine`` decides a <= b."""
    return engine._le(normalize(a, engine), normalize(b, engine), engine.depth)


def _rule_flat(t: Term, engine: Engine) -> Optional[Term]:
    if not isinstance(t, Glue):
        return None
    if any(isinstance(s, (Glue, Empty)) for s in t.summands):
        out: list[Term] = []
        for s in t.summands:
            if isinstance(s, Empty):
                continue
            if isinstance(s, Glue):
                out.extend(s.summands)
            else:
                out.append(s)
        return Glue(out)
    if len(t.summands) == 1:
        return t.summands[0]
    if not t.summands:
        return EMPTY
    return None


def _rule_minmax(t: Term, engine: Engine) -> Optional[Term]:
    if isinstance(t, PglSet) and t.members == (EMPTY,):
        # the pointed gluing of the empty function is the singleton
        # identity, the same base case the min recurrence bottoms out in
        return ONE
    if isinstance(t, MinFn):
        r = t.rank
        if r.finite == 1 and not r.terms:
            return ONE
        if r.finite >= 2:
            return PglSet([MinFn(ord_mod.pred_if_successor(r))])
        return None
    if isinstance(t, MaxFn):
        r = t.rank
        if r.is_zero:
            return EMPTY
        if r.finite == 1 and not r.terms:
            return Omega(ONE)
        if r.is_successor:
            return Omega(PglSet([MaxFn(ord_mod.pred_if_successor(r))]))
        return None
    return None


def _rule_omega(t: Term, engine: Engine) -> Optional[Term]:
    if isinstance(t, Omega):
        if isinstance(t.body, Empty):
            return EMPTY
        if isinstance(t.body, Omega):
            return t.body
        if isinstance(t.body, Glue):
            return Glue([Omega(s) for s in t.body.summands])
        return None
    if isinstance(t, Glue):
        omegas = {s.body for s in t.summands if isinstance(s, Omega)}
        if not omegas:
            return None
        out: list[Term] = []
        seen_omega: set[Term] = set()
        changed = False
        for s in t.summands:
            if isinstance(s, Omega):
                if s.body in seen_omega:
                    changed = True
                    continue
                seen_omega.add(s.body)
                out.append(s)
            elif s in omegas:
                changed = True
            else:
                out.append(s)
        return Glue(out) if changed else None
    return None


def _rule_pgl_members(t: Term, engine: Engine) -> Optional[Term]:
    if not isinstance(t, PglSet) or len(t.members) < 2:
        return None
    doomed: set[Term] = set()
    for m in t.members:
        for d in t.members:
            if m == d:
                continue
            le_md, le_dm = _le(engine, m, d), _le(engine, d, m)
            if le_md and (not le_dm or syntactic_cmp(d, m) < 0):
                doomed.add(m)
                break
    if not doomed:
        return None
    return PglSet([m for m in t.members if m not in doomed])


def _rule_pgl_wedge(t: Term, engine: Engine) -> Optional[Term]:
    if not isinstance(t, PglSet):
        return None
    for m in t.members:
        if isinstance(m, Wedge):
            replacement = [PglSet(v) for v in m.verticals]
            replacement += [Omega(h) for h in m.diagonal]
            rest = [x for x in t.members if x != m]
            return PglSet(rest + replacement)
    return None


def _canonical_side_set(members: tuple[Term, ...], engine: Engine) -> tuple[Term, ...]:
    """Normalize the gluing a wedge side set denotes, and resplit it
    into a set when the normal form is duplicate-free.  Duplicated
    summands (which a set cannot spell) leave the set unchanged."""
    if not members:
        return members
    n = normalize(glue_of(members), engine)
    parts = summands_of(n)
    if not parts or len(set(parts)) != len(parts):
        return members
    if isinstance(n, Empty):
        return members
    return parts


def _rule_pgl_absorb(t: Term, engine: Engine) -> Optional[Term]:
    if not isinstance(t, Glue):
        return None
    if not any(isinstance(s, PglSet) for s in t.summands):
        return None
    for i, s in enumerate(t.summands):
        for j, p in enumerate(t.summands):
            if i == j or not isinstance(p, PglSet):
                continue
            x = normalize(s, engine)
            if engine._le_fin_glue(x, p.members, len(summands_of(s)), engine.depth):
                return Glue(t.summands[:i] + t.summands[i + 1 :])
    return None


def _dominates_set(
    engine: Engine, fam_a: tuple[Term, ...], fam_b: tuple[Term, ...]
) -> bool:
    return all(any(_le(engine, f, g) for g in fam_b) for f in fam_a)


def _rule_wedge_reduce(t: Term, engine: Engine) -> Optional[Term]:
    if not isinstance(t, Wedge):
        return None
    # (a0) canonicalize each side set through its glued normal form:
    # the wedge only sees the gluing of a side set, so a duplicate-free
    # resplit of that normal form denotes the same verticals/diagonal
    new_verticals = [_canonical_side_set(v, engine) for v in t.verticals]
    new_diagonal = _canonical_side_set(t.diagonal, engine)
    if tuple(new_verticals) != t.verticals or new_diagonal != t.diagonal:
        return merged_wedge(new_verticals, new_diagonal)

    # (a) vertical family -> antichain of domination-maximal sets
    fams = list(t.verticals)
    keep = []
    for i, fam in enumerate(fams):
        dominated = False
        for j, other in enumerate(fams):
            if i == j:
                continue
            if _dominates_set(engine, fam, other):
                if not _dominates_set(engine, other, fam):
                    dominated = True
                elif [sort_key(x) for x in other] < [sort_key(x) for x in fam]:
                    dominated = True
            if dominated:
                break
        if not dominated:
            keep.append(fam)
    if len(keep) < len(fams):
        return Wedge(keep, t.diagonal)

    # (b) drop dominated diagonal members
    vertical_terms = [glue_of(v) for v in t.verticals]
    doomed: set[Term] = set()
    for h in t.diagonal:
        gone = False
        for v in vertical_terms:
            if _le(engine, h, v):
                gone = True
                break
        if not gone:
            for h2 in t.diagonal:
                if h2 == h:
                    continue
                if _le(engine, h, h2):
                    le2 = _le(engine, h2, h)
                    if not le2 or syntactic_cmp(h2, h) < 0:
                        gone = True
                        break
        if gone:
            doomed.add(h)
    if doomed:
        return Wedge(t.verticals, [h for h in t.diagonal if h not in doomed])

    # (c) a single vertical over an empty diagonal is a pointed gluing
    if not t.diagonal and len(t.verticals) == 1:
        return PglSet(t.verticals[0])

    # (d) collapse to omega copies of the diagonal
    if t.diagonal and all(
        engine._le_fin_glue(normalize(PglSet(v), engine), t.diagonal, 1, engine.depth)
        for v in t.verticals
    ):
        return Glue([Omega(h) for h in t.diagonal])
    return None


_RULES: dict[str, Callable[[Term, Engine], Optional[Term]]] = {
    "R-flat": _rule_flat,
    "R-minmax": _rule_minmax,
    "R-omega": _rule_omega,
    "R-pgl-members": _rule_pgl_members,
    "R-pgl-wedge": _rule_pgl_wedge,
    "R-pgl-absorb": _rule_pgl_absorb,
    "R-wedge-reduce": _rule_wedge_reduce,
}

# tried in this order at each node, after R-minmax
_CAPPED_RULES = (_rule_flat, _rule_omega, _rule_pgl_members, _rule_pgl_wedge,
                 _rule_pgl_absorb, _rule_wedge_reduce)


def rule_names() -> tuple[str, ...]:
    return tuple(_RULES)


def apply_rule(t: Term, rule_name: str, engine: Engine) -> Optional[Term]:
    """One outermost-leftmost application of the named rule, or None if
    it applies nowhere in ``t``.  Comparisons run on ``engine``."""
    rule = _RULES.get(rule_name)
    if rule is None:
        raise ValueError(f"unknown rule {rule_name!r}; known: {', '.join(_RULES)}")
    return _apply_somewhere(t, partial(rule, engine=engine))


def _apply_somewhere(t: Term, rule: Callable[[Term], Optional[Term]]) -> Optional[Term]:
    at_root = rule(t)
    if at_root is not None:
        return at_root
    if isinstance(t, Glue):
        for i, s in enumerate(t.summands):
            r = _apply_somewhere(s, rule)
            if r is not None:
                return Glue(t.summands[:i] + (r,) + t.summands[i + 1 :])
        return None
    if isinstance(t, Omega):
        r = _apply_somewhere(t.body, rule)
        return Omega(r) if r is not None else None
    if isinstance(t, PglSet):
        for i, m in enumerate(t.members):
            r = _apply_somewhere(m, rule)
            if r is not None:
                return PglSet(t.members[:i] + (r,) + t.members[i + 1 :])
        return None
    if isinstance(t, Wedge):
        for i, fam in enumerate(t.verticals):
            for j, x in enumerate(fam):
                r = _apply_somewhere(x, rule)
                if r is not None:
                    new_fam = fam[:j] + (r,) + fam[j + 1 :]
                    return merged_wedge(
                        t.verticals[:i] + (new_fam,) + t.verticals[i + 1 :], t.diagonal
                    )
        for j, d in enumerate(t.diagonal):
            r = _apply_somewhere(d, rule)
            if r is not None:
                return Wedge(t.verticals, t.diagonal[:j] + (r,) + t.diagonal[j + 1 :])
        return None
    return None
