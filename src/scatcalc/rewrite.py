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
    argument is 1, a limit, or limit-plus-one.
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

The min/max expansion strictly decreases its ordinal argument, so it
runs to exhaustion first; the remaining rules then run to a joint
fixpoint under a hard application cap (default ``10 * term_size``),
converting any unforeseen cycle into a diagnosable failure.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

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
    merged_wedge,
    syntactic_cmp,
    term_size,
)


class NormalizationLimitError(RuntimeError):
    """The joint fixpoint exceeded its application cap."""


DEFAULT_CAP_FACTOR = 10

_cache: dict[Term, Term] = {}


def normalize(t: Term, max_steps: int | None = None) -> Term:
    """Rewrite ``t`` to a fixpoint of the rule set.

    The result denotes the same reducibility class: every rule is an
    equivalence.  Idempotent, and rank-preserving on scattered terms.
    """
    hit = _cache.get(t)
    if hit is not None:
        return hit
    expanded = _expand_minmax(t)
    cap = max_steps if max_steps is not None else DEFAULT_CAP_FACTOR * term_size(expanded)
    counter = [0, cap]
    result = _fix(expanded, counter)
    _cache[t] = result
    _cache[result] = result
    return result


def _expand_minmax(t: Term) -> Term:
    if isinstance(t, MinFn):
        r = t.rank
        if r.finite == 1 and not r.terms:
            return ONE
        lam, n = ord_mod.split(r)
        if n >= 2:
            return PglSet([_expand_minmax(MinFn(ord_mod.pred_if_successor(r)))])
        return t
    if isinstance(t, MaxFn):
        r = t.rank
        if r.is_zero:
            return EMPTY
        if r.finite == 1 and not r.terms:
            return Omega(ONE)
        if r.is_successor:
            return Omega(PglSet([_expand_minmax(MaxFn(ord_mod.pred_if_successor(r)))]))
        return t
    return _map_children(t, _expand_minmax)


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


def _fix(t: Term, counter: list[int]) -> Term:
    hit = _cache.get(t)
    if hit is not None:
        return hit
    original = t
    while True:
        t2 = _map_children(t, partial(_fix, counter=counter))
        rewritten = _apply_top(t2)
        if rewritten is None:
            _cache[original] = t2
            _cache[t2] = t2
            return t2
        counter[0] += 1
        if counter[0] > counter[1]:
            raise NormalizationLimitError(
                f"no fixpoint within {counter[1]} rule applications"
            )
        t = rewritten


_TOP_RULE_ORDER = ("R-flat", "R-omega", "R-minmax", "R-pgl-members",
                   "R-pgl-wedge", "R-pgl-absorb", "R-wedge-reduce")


def _apply_top(t: Term) -> Optional[Term]:
    for name in _TOP_RULE_ORDER:
        r = _RULES[name](t)
        if r is not None:
            return r
    return None


# ---------------------------------------------------------------------------
# Individual rules, each applying at the root only


def _rule_flat(t: Term) -> Optional[Term]:
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


def _rule_minmax(t: Term) -> Optional[Term]:
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


def _rule_omega(t: Term) -> Optional[Term]:
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


def _verdicts(a: Term, b: Term) -> tuple[bool, bool]:
    """(a <= b decided, b <= a decided) via the comparison engine."""
    from scatcalc.compare import Outcome, compare

    le_ab = compare(a, b).outcome is Outcome.LE
    le_ba = compare(b, a).outcome is Outcome.LE
    return le_ab, le_ba


def _rule_pgl_members(t: Term) -> Optional[Term]:
    if not isinstance(t, PglSet) or len(t.members) < 2:
        return None
    doomed: set[Term] = set()
    for m in t.members:
        for d in t.members:
            if m == d:
                continue
            le_md, le_dm = _verdicts(m, d)
            if le_md and (not le_dm or syntactic_cmp(d, m) < 0):
                doomed.add(m)
                break
    if not doomed:
        return None
    return PglSet([m for m in t.members if m not in doomed])


def _rule_pgl_wedge(t: Term) -> Optional[Term]:
    if not isinstance(t, PglSet):
        return None
    for m in t.members:
        if isinstance(m, Wedge):
            replacement = [PglSet(v) for v in m.verticals]
            replacement += [Omega(h) for h in m.diagonal]
            rest = [x for x in t.members if x != m]
            return PglSet(rest + replacement)
    return None


def _glue_of(members: tuple[Term, ...]) -> Term:
    return members[0] if len(members) == 1 else Glue(members)


def _canonical_side_set(members: tuple[Term, ...]) -> tuple[Term, ...]:
    """Normalize the gluing a wedge side set denotes, and resplit it
    into a set when the normal form is duplicate-free.  Duplicated
    summands (which a set cannot spell) leave the set unchanged."""
    if not members:
        return members
    n = normalize(_glue_of(members))
    parts = n.summands if isinstance(n, Glue) else (n,)
    if not parts or len(set(parts)) != len(parts):
        return members
    if isinstance(n, Empty):
        return members
    return parts


def _le_fin_glue(x: Term, members: tuple[Term, ...], bound: int) -> bool:
    """Bounded search: x <= k copies of the glued member set for some
    k <= bound."""
    from scatcalc.compare import Outcome, compare

    for k in range(1, bound + 1):
        target = Glue(list(members) * k) if k > 1 else _glue_of(members)
        if compare(x, target).outcome is Outcome.LE:
            return True
    return False


def _width(t: Term) -> int:
    return len(t.summands) if isinstance(t, Glue) else 1


def _rule_pgl_absorb(t: Term) -> Optional[Term]:
    if not isinstance(t, Glue):
        return None
    if not any(isinstance(s, PglSet) for s in t.summands):
        return None
    for i, s in enumerate(t.summands):
        for j, p in enumerate(t.summands):
            if i == j or not isinstance(p, PglSet):
                continue
            if _le_fin_glue(s, p.members, _width(s)):
                return Glue(t.summands[:i] + t.summands[i + 1 :])
    return None


def _dominates_set(fam_a: tuple[Term, ...], fam_b: tuple[Term, ...]) -> bool:
    from scatcalc.compare import Outcome, compare

    return all(
        any(compare(f, g).outcome is Outcome.LE for g in fam_b) for f in fam_a
    )


def _rule_wedge_reduce(t: Term) -> Optional[Term]:
    if not isinstance(t, Wedge):
        return None
    from .term import merged_wedge as mk_wedge, sort_key

    # (a0) canonicalize each side set through its glued normal form:
    # the wedge only sees the gluing of a side set, so a duplicate-free
    # resplit of that normal form denotes the same verticals/diagonal
    new_verticals = [_canonical_side_set(v) for v in t.verticals]
    new_diagonal = _canonical_side_set(t.diagonal)
    if tuple(new_verticals) != t.verticals or new_diagonal != t.diagonal:
        return mk_wedge(new_verticals, new_diagonal)

    # (a) vertical family -> antichain of domination-maximal sets
    fams = list(t.verticals)
    keep = []
    for i, fam in enumerate(fams):
        dominated = False
        for j, other in enumerate(fams):
            if i == j:
                continue
            if _dominates_set(fam, other):
                if not _dominates_set(other, fam):
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
    from scatcalc.compare import Outcome, compare

    vertical_terms = [_glue_of(v) for v in t.verticals]
    doomed: set[Term] = set()
    for h in t.diagonal:
        gone = False
        for v in vertical_terms:
            if compare(h, v).outcome is Outcome.LE:
                gone = True
                break
        if not gone:
            for h2 in t.diagonal:
                if h2 == h:
                    continue
                if compare(h, h2).outcome is Outcome.LE:
                    le2 = compare(h2, h).outcome is Outcome.LE
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
        _le_fin_glue(PglSet(v), t.diagonal, 1) for v in t.verticals
    ):
        return Glue([Omega(h) for h in t.diagonal])
    return None


_RULES: dict[str, Callable[[Term], Optional[Term]]] = {
    "R-flat": _rule_flat,
    "R-minmax": _rule_minmax,
    "R-omega": _rule_omega,
    "R-pgl-members": _rule_pgl_members,
    "R-pgl-wedge": _rule_pgl_wedge,
    "R-pgl-absorb": _rule_pgl_absorb,
    "R-wedge-reduce": _rule_wedge_reduce,
}


def rule_names() -> tuple[str, ...]:
    return tuple(_RULES)


def apply_rule(t: Term, rule_name: str) -> Optional[Term]:
    """One outermost-leftmost application of the named rule, or None if
    it applies nowhere in ``t``."""
    rule = _RULES.get(rule_name)
    if rule is None:
        raise ValueError(f"unknown rule {rule_name!r}; known: {', '.join(_RULES)}")
    return _apply_somewhere(t, rule)


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


def clear_cache() -> None:
    _cache.clear()
