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
    Omega of empty is empty, omega of an omega term is that term, omega
    distributes over gluing, and omega of the max atom at a limit
    lambda is that atom: both have rank lambda, and L-gst reduces any
    term to one whose rank is a limit at least its own.
``R-pgl-members``
    A pointed-gluing member strictly dominated by a fellow member is
    redundant (mutual domination keeps the syntactically least).
``R-pgl-wedge``
    A wedge member of a pointed gluing is replaced by its vertical
    pointed gluings and omega copies of its diagonal members.
``R-absorb``
    A gluing summand goes when another summand, or another copy of
    itself, absorbs it by ``Engine._absorbs``, the predicate L-glue
    uses.  Each rewrite is an equivalence: ``t <= glue(t, s)`` holds as
    a summand inclusion, and ``glue(t, s) <= t`` is the L-glue
    derivation of that pair, in which ``t`` matches itself and absorbs
    ``s``.  The rule is therefore exactly as strong as L-glue, whose
    absorbing targets ``t`` are:

    * ``omega(b)``, when ``s <= b``, or ``s`` is an omega term, gluing or
      wedge whose parts are each so absorbed: every part lands in
      countably many copies of ``b``, and omega copies plus omega
      copies are omega copies;
    * ``pgl{M}``, when ``s <= glue(M)``: a pointed gluing splits off
      any finite prefix of its rays, so ``pgl{M}`` is
      ``glue(pgl{M}, glue(M))``;
    * the max atom at a limit lambda, when ``rank(s) <= lambda``: the
      gluing still has rank at most lambda, and L-max reduces every
      such term to the atom;
    * the min atom at lambda + 1, lambda a limit, when ``rank(s)`` is
      below lambda: the atom is a pointed gluing of min atoms whose
      ranks are cofinal in lambda, so it splits off a ray of rank above
      twice ``rank(s)``, and ``s`` reduces to that ray by the
      general-structure bound of L-gst.

    One pass over the distinct summands, in order, decides them all:
    a summand goes, every copy at once, when a summand still present
    absorbs it, and one that only absorbs itself keeps a single copy.
    Each drop is a valid step on its own, and ``k*t`` costs one
    question per distinct pair, not one rewrite per copy.
``R-wedge-reduce``
    Reduced form for wedges, built in one application: (a0) side sets
    resplit from their gluings' normal forms, (a) vertical families
    shrink to a domination-maximal antichain, (b) dominated diagonal
    members drop, then (c) one vertical over an empty diagonal is a
    pointed gluing, or (d) when each vertical's pointed gluing is below
    the gluing of the diagonal, the wedge collapses to omega copies of
    the diagonal.  One copy is as strong as any finite number:
    ``pgl{v}`` is centered, so by N-centered's principle it goes into a
    single summand of any gluing of copies.

One pass normalizes bottom-up: each node is reduced in one step with
its normal children, and the step applies the rules for the node's
constructor in the order listed above:

* a gluing: ``R-flat`` splices the normal summands' gluings and drops
  ``empty``, then ``R-absorb`` makes its one pass over the sorted
  summands;
* an omega term: ``R-omega`` on the normal body;
* a pointed gluing: the normal members, deduplicated and sorted, go
  through ``R-pgl-members``, ``R-minmax``'s ``pgl{empty}`` case, then
  ``R-pgl-wedge``;
* a wedge: ``R-wedge-reduce`` on the normal side sets;
* a min or max atom: one ``R-minmax`` expansion.  Every other atom is
  normal.

A step builds only the term it returns, never the node with normal
children or a shape between.  That term is normal, but for the omega
copies of a gluing's summands that ``R-omega`` returns, ``R-pgl-wedge``'s
pointed gluing, whose new members are not, an expanded atom, and a
pointed gluing or gluing that ``R-wedge-reduce`` returns, which the
pass goes on to normalize.  A second ``R-absorb`` or ``R-pgl-members``
pass would drop nothing: what no item present dominates, none of fewer
items does.

``R-minmax`` stops on its own (it strictly decreases an atom's ordinal,
or turns ``pgl{empty}`` into ``one``); the six others share a hard
application cap of ``10 * term_size`` of the input, converting any
unforeseen cycle into a diagnosable failure.  Each step in which one
of the six fires counts once against it (a wedge's step always
counts).  A fixpoint's input, each term a rule or step returns and the
normal form map to the normal form in the engine's cache, and a pass
that meets a cached term stops there, so each node is reduced at most
once per engine, unless a query was blocked while it was reduced.

``R-pgl-members``, ``R-absorb`` and ``R-wedge-reduce`` decide
reducibilities.  Normalization runs on an :class:`~scatcalc.compare.Engine`:
every rule asks that engine, and the normal forms are cached on it, so
an engine's normal forms and verdicts depend on nothing outside it.
A rule passes the terms it holds as they are, normal or not: the
engine's ``compare`` normalizes each pair that its CB-types leave open.
The queries a rule opens count against the engine's bound on open
queries, like those of the derivation that asked for the normal form.
:func:`normalize` and :func:`apply_rule` take that engine as a required
argument.

:func:`apply_rule` walks a term on its own, trying the rule at a node
before its children (summands, body, members, then verticals and
diagonal), so the rule fires at the outermost-leftmost node it fits.
The walk and the normalizer each cost one Python frame per level of
nesting.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, repeat
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence, TypeVar

from . import ordinal as ord_mod
from .term import (
    EMPTY,
    Empty,
    Glue,
    MaxFn,
    MinFn,
    ONE,
    Omega,
    PglSet,
    Term,
    Wedge,
    _family_key,
    _key_of,
    _sorted_set,
    glue_of,
    merged_wedge,
    multiplicities,
    sort_key,
    summands_of,
    term_size,
)

if TYPE_CHECKING:
    from .compare import Engine


T = TypeVar("T")


class NormalizationLimitError(RuntimeError):
    """The joint fixpoint exceeded its application cap."""


DEFAULT_CAP_FACTOR = 10


def normalize(t: Term, engine: Engine) -> Term:
    """Rewrite ``t`` to a fixpoint of the rule set.

    The result denotes the same reducibility class: every rule is an
    equivalence.  Idempotent, and rank-preserving on scattered terms.
    The rules' comparisons run on ``engine``, which also caches the
    result: the input, each term a rule or step returns and the normal
    form map to the normal form there, so each node is reduced at most
    once per engine, unless a query was blocked while it was reduced.
    Every node is reduced with its children in one step, which builds
    only the term it returns: no node with normal children and no shape
    between is built or cached.  At most
    ``DEFAULT_CAP_FACTOR * term_size(t)`` steps that fire a rule other
    than ``R-minmax`` are made before :class:`NormalizationLimitError`
    is raised; a failed chain caches none of its shapes.
    """
    hit = engine._nf.get(t)
    if hit is not None:
        return hit
    return _fix([0, DEFAULT_CAP_FACTOR * term_size(t)], engine, t)


def _fix(counter: list[int], engine: Engine, t: Term) -> Term:
    cache = engine._nf
    nf = cache.get(t)
    if nf is not None:
        return nf
    # the shapes met so far, all of which map to the normal form; they
    # are cached only once it is reached, so a failed chain leaves none,
    # and only if no query was blocked meanwhile
    shapes = [t]
    blocked = engine._local.blocked
    normalize_child = partial(_fix, counter, engine)
    while True:
        # each constructor is one step with its children, which builds
        # only the term it returns; that term is normal unless R-omega
        # brought in omega copies, R-pgl-wedge members, R-minmax expanded
        # an atom or R-wedge-reduce returned no wedge
        normal = True
        if isinstance(t, Glue):
            rewritten, capped = _reduce_glue(list(map(normalize_child, t.summands)), engine)
        elif isinstance(t, PglSet):
            # set() consumes the map, so no Python frame per level
            members = _sorted_set(set(map(normalize_child, t.members)))
            rewritten, capped, normal = _reduce_pgl(members, engine)
        elif isinstance(t, Wedge):
            rewritten = _reduce_wedge(
                tuple(map(tuple, map(partial(map, normalize_child), t.verticals))),
                tuple(map(normalize_child, t.diagonal)),
                engine,
            )
            capped, normal = True, isinstance(rewritten, Wedge)
        elif isinstance(t, Omega):
            rewritten, capped, normal = _reduce_omega(normalize_child(t.body))
        elif isinstance(t, (MinFn, MaxFn)):
            # R-minmax stops on its own, so it stays outside the cap
            rewritten, capped, normal = _rule_minmax(t, engine), False, False
            if rewritten is None:
                nf = t
                break
        else:  # one and empty
            nf = t
            break
        if capped:
            counter[0] += 1
            if counter[0] > counter[1]:
                raise NormalizationLimitError(f"no fixpoint within {counter[1]} rule applications")
        nf = cache.get(rewritten)
        if nf is not None:
            break
        shapes.append(rewritten)
        if normal:
            nf = rewritten
            break
        t = rewritten
    if engine._local.blocked == blocked:
        for shape in shapes:
            cache[shape] = nf
    return nf


# ---------------------------------------------------------------------------
# Individual rules, each applying at the root only and asking ``engine``
# for any reducibility they need, over helpers that the normalizer's
# steps share


def _undominated(
    items: Sequence[T], le: Callable[[T, T], bool], key: Callable[[T], Any]
) -> list[T]:
    """The items that no other item strictly dominates, in order.
    ``le(a, b)`` says that ``b`` dominates ``a``; of mutually dominating
    items only the one with the least ``key`` survives."""
    kept = []
    for a in items:
        for b in items:
            if b != a and le(a, b) and (not le(b, a) or key(b) < key(a)):
                break
        else:
            kept.append(a)
    return kept


def _rule_flat(t: Glue, engine: Engine) -> Optional[Term]:
    summands = t.summands
    flat = _flatten(summands)
    if flat is not None:
        return Glue(flat)
    if len(summands) == 1:
        return summands[0]
    return None if summands else EMPTY


def _flatten(summands: Sequence[Term]) -> Optional[list[Term]]:
    """R-flat's splice: ``summands`` with each gluing replaced by its
    summands and each ``empty`` dropped, or None when there is none."""
    for s in summands:
        if isinstance(s, (Glue, Empty)):
            break
    else:
        return None
    out: list[Term] = []
    for s in summands:
        if isinstance(s, Glue):
            out += s.summands
        elif not isinstance(s, Empty):
            out.append(s)
    return out


def _rule_minmax(t: Term, engine: Engine) -> Optional[Term]:
    if isinstance(t, PglSet):
        return _pgl_of_empty(t.members)
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


def _pgl_of_empty(members: tuple[Term, ...]) -> Optional[Term]:
    """R-minmax on a pointed gluing's member set: ``one`` for
    ``pgl{empty}``, else None.  The pointed gluing of the empty function
    is the singleton identity, the base case the min recurrence bottoms
    out in."""
    return ONE if members == (EMPTY,) else None


def _rule_omega(t: Omega, engine: Engine) -> Optional[Term]:
    rewritten, fired, _ = _reduce_omega(t.body)
    return rewritten if fired else None


def _reduce_omega(body: Term) -> tuple[Term, bool, bool]:
    """R-omega on the omega term of ``body``: the term, whether the rule
    fired, and whether the term is normal when ``body`` is (omega copies
    of a gluing's summands are not)."""
    if isinstance(body, Empty):
        return EMPTY, True, True
    if isinstance(body, Omega) or (isinstance(body, MaxFn) and body.rank.is_limit):
        return body, True, True
    if isinstance(body, Glue):
        return Glue([Omega(s) for s in body.summands]), True, False
    return Omega(body), False, True


def _rule_pgl_members(t: PglSet, engine: Engine) -> Optional[Term]:
    kept = _dominant_members(t.members, engine)
    return None if kept is t.members else PglSet(kept)


def _dominant_members(members: tuple[Term, ...], engine: Engine) -> tuple[Term, ...]:
    """R-pgl-members on a sorted member set: the members that no fellow
    member strictly dominates, or ``members`` itself when none goes."""
    if len(members) < 2:
        return members
    kept = _undominated(members, engine._le, sort_key)
    return members if len(kept) == len(members) else tuple(kept)


def _rule_pgl_wedge(t: PglSet, engine: Engine) -> Optional[Term]:
    return _pgl_wedge(t.members)


def _pgl_wedge(members: tuple[Term, ...]) -> Optional[PglSet]:
    """R-pgl-wedge on a member set: the pointed gluing with its first
    wedge member replaced, or None when no member is a wedge."""
    for m in members:
        if isinstance(m, Wedge):
            replacement = [PglSet(v) for v in m.verticals]
            replacement += [Omega(h) for h in m.diagonal]
            rest = [x for x in members if x != m]
            return PglSet(rest + replacement)
    return None


def _resplit(members: tuple[Term, ...], engine: Engine) -> tuple[Term, ...]:
    """Normalize the gluing a wedge side set denotes, and resplit it
    into a set when the normal form is duplicate-free.  Duplicated
    summands (which a set cannot spell) leave the set unchanged.  A
    side set asked again finds its gluing interned and its normal form
    in the engine's cache, so nothing else keeps the resplit."""
    if not members:
        return members
    n = normalize(glue_of(members), engine)
    parts = summands_of(n)
    if isinstance(n, Empty) or len(set(parts)) != len(parts):
        return members
    return parts


def _rule_absorb(t: Glue, engine: Engine) -> Optional[Term]:
    kept = _absorb(t.summands, engine)
    return None if kept is None else glue_of(kept)


def _absorb(summands: Sequence[Term], engine: Engine) -> Optional[list[Term]]:
    """R-absorb's one pass over the distinct ``summands`` of a gluing,
    in order: the summands it keeps, or None when it drops no copy."""
    counts = multiplicities(summands)
    dropped = False
    # a summand's absorber must still be present when it goes, so that
    # each drop is a valid step on its own
    for s, n in list(counts.items()):
        for u in counts:
            if u is not s and engine._absorbs(u, s):
                del counts[s]  # safe: the loop over counts ends here
                dropped = True
                break
        else:
            if n > 1 and engine._absorbs(s, s):
                counts[s] = 1
                dropped = True
    if not dropped:
        return None
    # n copies of each kept summand s, without a comprehension's frame
    return list(chain.from_iterable(map(repeat, counts, counts.values())))


def _reduce_glue(summands: list[Term], engine: Engine) -> tuple[Term, bool]:
    """R-flat, then R-absorb, on the gluing of the normal ``summands``,
    building one term: the normal form, and whether either rule fired.
    One pass of R-absorb leaves nothing for a second: a summand that no
    summand present absorbed is absorbed by none of fewer."""
    flat = _flatten(summands)
    if flat is not None:
        summands = flat
    if len(summands) < 2:  # R-flat unwraps a singleton and an empty gluing
        return (summands[0] if summands else EMPTY), True
    # R-absorb reads the summands in the order a gluing stores them
    summands.sort(key=_key_of)
    kept = _absorb(summands, engine)
    if kept is None:
        return glue_of(summands), flat is not None
    return glue_of(kept), True


def _reduce_pgl(members: tuple[Term, ...], engine: Engine) -> tuple[Term, bool, bool]:
    """R-pgl-members, R-minmax's ``pgl{empty}`` case, then R-pgl-wedge,
    on the pointed gluing of the normal sorted set ``members``, building
    one term: the term, whether R-pgl-members or R-pgl-wedge fired, and
    whether the term is normal (R-pgl-wedge brings in members that are
    not).  R-pgl-members leaves nothing for a second pass, as R-absorb
    does, and changes no single member, which R-minmax reads first."""
    kept = _dominant_members(members, engine)
    one = _pgl_of_empty(kept)
    if one is not None:
        return one, kept is not members, True
    wedged = _pgl_wedge(kept)
    if wedged is not None:
        return wedged, True, False
    return PglSet(kept), kept is not members, True


def _rule_wedge_reduce(t: Wedge, engine: Engine) -> Optional[Term]:
    reduced = _reduce_wedge(t.verticals, t.diagonal, engine)
    return None if reduced is t else reduced


def _reduce_wedge(verticals: Sequence[tuple], diagonal: tuple, engine: Engine) -> Term:
    """(a0)-(d) on the wedge of ``verticals`` over ``diagonal``, building one term."""
    # (a0) canonicalize each side set through its glued normal form:
    # the wedge only sees the gluing of a side set, so a duplicate-free
    # resplit of that normal form denotes the same verticals/diagonal;
    # sets are deduplicated and sorted as merged_wedge does
    family = sorted({_sorted_set(v) for v in verticals}, key=_family_key)
    family = sorted({_resplit(v, engine) for v in family}, key=_family_key)
    diagonal = _resplit(_sorted_set(diagonal), engine)

    # (a) vertical family -> antichain of domination-maximal sets
    def fam_le(a: tuple[Term, ...], b: tuple[Term, ...]) -> bool:
        for x in a:
            if not any(map(partial(engine._le, x), b)):
                return False
        return True

    family = _undominated(family, fam_le, lambda fam: [sort_key(x) for x in fam])

    # (b) drop diagonal members below a vertical or a fellow member, resplitting as in (a0)
    vertical_terms = [glue_of(v) for v in family]
    while True:
        keep = []
        for h in _undominated(diagonal, engine._le, sort_key):
            if not any(map(partial(engine._le, h), vertical_terms)):
                keep.append(h)
        if len(keep) == len(diagonal):
            break
        diagonal = _resplit(tuple(keep), engine)

    # (c) a single vertical over an empty diagonal is a pointed gluing
    if not diagonal and len(family) == 1:
        return PglSet(family[0])

    # (d) collapse to omega copies of the diagonal
    if diagonal and all(engine._le(PglSet(v), glue_of(diagonal)) for v in family):
        return Glue([Omega(h) for h in diagonal])
    return Wedge(family, diagonal)


# name -> the rule and the constructors it rewrites; a rule is asked
# only about nodes of those constructors
_RULES: dict[str, tuple[Callable, tuple[type, ...]]] = {
    "R-flat": (_rule_flat, (Glue,)),
    "R-minmax": (_rule_minmax, (MinFn, MaxFn, PglSet)),
    "R-omega": (_rule_omega, (Omega,)),
    "R-pgl-members": (_rule_pgl_members, (PglSet,)),
    "R-pgl-wedge": (_rule_pgl_wedge, (PglSet,)),
    "R-absorb": (_rule_absorb, (Glue,)),
    "R-wedge-reduce": (_rule_wedge_reduce, (Wedge,)),
}


def rule_names() -> tuple[str, ...]:
    return tuple(_RULES)


def apply_rule(t: Term, rule_name: str, engine: Engine) -> Optional[Term]:
    """One outermost-leftmost application of the named rule, or None if
    it applies nowhere in ``t``.  Comparisons run on ``engine``."""
    entry = _RULES.get(rule_name)
    if entry is None:
        raise ValueError(f"unknown rule {rule_name!r}; known: {', '.join(_RULES)}")
    rule, kinds = entry
    fired: list[Term] = []
    out = _step(fired, partial(rule, engine=engine), kinds, t)
    return out if fired else None


def _step(fired: list[Term], rule: Callable, kinds: tuple[type, ...], t: Term) -> Term:
    """``rule`` at ``t`` if it is of one of ``kinds``, else at its
    children: summands, body, members, then verticals and diagonal.
    Once ``fired`` holds an application, every later node stays as it
    is, and a node whose children all stay is returned as it is."""
    if fired:
        return t
    stepped = rule(t) if isinstance(t, kinds) else None
    if stepped is not None:
        fired.append(stepped)
        return stepped
    # a partial, unlike a nested function, makes no reference cycle, so
    # the walk does not keep the engine alive for the collector; it and
    # map() add no Python frame per level of nesting
    step = partial(_step, fired, rule, kinds)
    if isinstance(t, Glue):
        summands = tuple(map(step, t.summands))
        return t if summands == t.summands else Glue(summands)
    if isinstance(t, Omega):
        body = step(t.body)
        return t if body is t.body else Omega(body)
    if isinstance(t, PglSet):
        members = tuple(map(step, t.members))
        return t if members == t.members else PglSet(members)
    if isinstance(t, Wedge):
        verticals = tuple(map(tuple, map(partial(map, step), t.verticals)))
        diagonal = tuple(map(step, t.diagonal))
        if verticals == t.verticals and diagonal == t.diagonal:
            return t
        return merged_wedge(verticals, diagonal)
    return t
