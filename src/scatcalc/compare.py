"""Three-valued decision engine for continuous reducibility.

``Engine.compare(f, g)`` reports whether the function denoted by ``f``
continuously reduces to the one denoted by ``g``: LE and NOT_LE are
backed by derivations from a closed rule table, everything else is
UNKNOWN.  The engine is sound by construction and complete only on
identified fragments (rank <= 1, compact domains, the generator levels
exercised by the test suite); no completeness is claimed in general.

Le-rules
    L-refl   structural equality after normalization.
    L-sent   sentinel facts: every term reduces to the Baire identity,
             every scattered term (and the rational identity itself)
             reduces to the rational identity.
    L-gst    rank arithmetic: f <= g when rank(g) is limit and
             rank(f) <= rank(g), when 2*rank(f) < rank(g), or when both
             ranks are finite and 2*rank(f) <= rank(g).
    L-min    a min atom reduces to anything of at least its rank.
    L-max    anything of rank <= a reduces to the max atom at a.
    L-max-simple
             a simple term of rank <= a+1 reduces to the pointed
             gluing of the max atom at a.
    L-glue   multiset matching of gluing summands into gluing summands;
             targets that absorb unbounded multiplicity (omega terms,
             pointed gluings via their split-off finite prefixes, max
             atoms, min atoms via general-structure bounds) accept any
             number of summands.  ``_absorbs`` decides absorption, and
             the rewrite rule R-absorb asks the same predicate, so a
             summand normalization drops is one L-glue would absorb.
    L-pgl-mono
             pointed gluings are monotone under memberwise reduction
             into finite gluings of the target members: it holds when
             every summand of every source member is below some target
             member, since each summand then takes its own copy of that
             member, and the source member is below as many copies of
             the glued member set as it has summands.
    L-pgl-lower
             omega copies of the glued member set reduce into the
             pointed gluing, so anything below the former is below the
             latter.
    L-wedge-bounds
             each vertical pointed gluing and omega copies of the
             diagonal sit below a wedge; a wedge sits below the gluing
             of those bounds.
    A1       the max atom at lambda is below the min atom at lambda+1
             (lambda limit or 1).

NotLe-rules
    N-lex    reduction is monotone for the lexicographic order on
             CB-types (finite degrees below omega).
    N-scat   the sentinels reduce to no scattered term, and the Baire
             identity not to the rational one.
    N-centered
             a centered term reducing to a gluing or omega term must
             reduce to one summand; all summands refuted refutes the
             whole.
    N-pgl-deg
             refutations between pointed gluings.  At equal ranks rays
             land in finitely many rays, so an omega-degree member set
             cannot reduce to a finite-degree one, and a single centered
             member refuted by every target member refutes the pair.
             Below the target rank, that centered member refuted by
             every target member (the center at the top point) and the
             source refuted by every target member (the center inside
             one ray) refute the pair.  That branch never fires: a
             pair whose source rank is below its target's is refuted
             by no rule but N-centered, N-mono and this branch, and
             each of those needs such a pair refuted first (with the
             target's top-rank summand, omega body, wedge upper bound
             or top-rank member, or with a lower bound of the source).
    N-capacity
             top-rank summands of a gluing, when simple and centered,
             must occupy distinct degree-slots of the target's
             top-rank summands; infeasibility of the assignment
             refutes reduction.
    N-mono   a structural lower bound of f not below g (or f not below
             a structural upper bound of g) refutes f <= g.
    A3, A4, A5a, A5b
             recorded obstruction facts at each representable level
             lambda (limit or 1): the omega'd pointed max-gluing is not
             below the level's wedge generator; the pointed max-gluing
             is not below the min atom, nor below min-glue-max; and
             min-glue-max is not below the min atom.

``Engine._decide`` settles the sentinel pairs (L-sent, N-scat) first,
then tries the rules in the order of the table ``_RULES``: L-refl,
N-lex, the axioms, L-gst, L-min/L-max, L-pgl-mono, L-glue,
L-pgl-lower, L-wedge-bounds, N-centered, N-pgl-deg,
N-capacity and N-mono.  Each rule takes the pair and its two CB-types
and returns a verdict or None; the first verdict wins, and a pair no
rule settles is UNKNOWN with a "rules" blocker.  L-glue and N-capacity
ask each question once per distinct summand: copies of a source
summand share its matching edges, and copies of a target add slots.

Verdicts carry a shallow trace naming the rule and the sub-queries it
used, formatted to text only when read.  Every question, the caller's
and each one a rule asks, enters through ``Engine.compare``.  N-lex and
L-gst read only the CB-types, an invariant of equivalence, so
``compare`` asks them first, from the type keys the terms store, and a
pair they settle opens no query.  Such a verdict is memoized under the
pair as asked and derives its steps when first read, from the root
rule that fires on the normal forms: the trace the full path gives.
It holds its engine weakly; read after the engine is gone, it derives
its steps on a fresh engine, with the same result, since normal forms
and verdicts do not depend on the engine, blocked queries or not.

Any other pair is a query (``Engine._query``): normalized, and its
verdict memoized on the normal forms.  So a rule asks about the terms
it builds as built, and normalizes a term itself only when its step
prints it (N-mono's bounds).  A query re-entered during its own
derivation is UNKNOWN for that path (coinductive failure).  At most
``MAX_OPEN_QUERIES`` queries are open at once on a thread, those
opened while normalizing included: a query asked past that bound is
UNKNOWN with a "depth" blocker.  Each block adds one to the thread's
``blocked`` count; no normal form derived while that count moved is
cached, and such an UNKNOWN only until its root query returns (a later
hit counts as a block).

An :class:`Engine` owns its memo and its normal-form cache, and runs
normalization on itself: the rewrite rules that decide reducibilities
query the engine that asked for the normal form, on the same query
stack.  Every caller passes its engine explicitly, so a verdict depends
on the pair alone, never on another caller's caches; dropping the last
reference to an engine frees it and its caches at once, with no wait
for the cyclic collector.
"""

from __future__ import annotations

import threading
import weakref
from enum import Enum
from typing import Optional

from . import ordinal as ord_mod
from . import rewrite
from .ordinal import Ordinal
from .rank import CENTERED, OMEGA_DEGREE, cb_type, is_compact_domain, lex_le
from .term import (
    ONE,
    Glue,
    IdBaire,
    IdQ,
    MaxFn,
    MinFn,
    Omega,
    One,
    PglSet,
    Term,
    Wedge,
    _glue_type,
    format_term,
    glue_of,
    multiplicities,
    summands_of,
)


class Outcome(Enum):
    LE = "le"
    NOT_LE = "not_le"
    UNKNOWN = "unknown"


_SENTINELS = (IdQ, IdBaire)

TraceStep = tuple[str, str]
# (rule, f, g, note parts)
Step = tuple[str, Term, Term, tuple]


class Verdict:
    """An outcome and the steps of its derivation.  A verdict that
    ``Engine.compare`` took from the CB-types alone holds a weak
    reference to its engine and its pair instead, and derives its steps
    when they are first read, on a fresh engine if its own is gone."""

    __slots__ = ("outcome", "_steps", "_pending")

    def __init__(
        self,
        outcome: Outcome,
        steps: tuple[Step, ...] = (),
        pending: tuple["weakref.ref[Engine]", Term, Term] | None = None,
    ) -> None:
        self.outcome = outcome
        self._steps = steps
        self._pending = pending

    @property
    def steps(self) -> tuple[Step, ...]:
        pending = self._pending
        if pending is not None:
            ref, f, g = pending
            self._steps = (ref() or Engine())._root_steps(f, g)
            self._pending = None
        return self._steps

    @property
    def trace(self) -> tuple[TraceStep, ...]:
        """The steps as (rule, query text) pairs, formatted on each read."""
        return tuple(_render(*step) for step in self.steps)

    def __bool__(self) -> bool:  # pragma: no cover - guard against misuse
        raise TypeError("Verdict is three-valued; test .outcome explicitly")

    def __repr__(self) -> str:
        # a pending derivation stays pending: repr must not normalize
        steps = "pending" if self._pending is not None else repr(self._steps)
        return f"Verdict({self.outcome}, {steps})"


# the most queries open at once on one thread; one asked past it is UNKNOWN
MAX_OPEN_QUERIES = 64


def _step(rule: str, f: Term, g: Term, *note) -> Step:
    return (rule, f, g, note)


def _render(rule: str, f: Term, g: Term, note: tuple) -> TraceStep:
    note = "".join(format_term(p) if isinstance(p, Term) else str(p) for p in note)
    text = f"{format_term(f)} <= {format_term(g)}"
    if note:
        text += f" [{note}]"
    return (rule, text)


def _type_rule(kf: tuple | None, kg: tuple | None) -> Optional[tuple[Outcome, str]]:
    """N-lex or L-gst on the type keys ``(rank terms, rank finite part,
    degree)`` of two terms, all that either rule reads of the CB-types:
    ``(NOT_LE, "")`` when N-lex refutes the pair, ``(LE, note)`` with
    the note L-gst cites, or None, also for a sentinel (key None).  The
    two never both apply, since L-gst puts the source type below the
    target's; so past N-lex, the source rank is at most the target's."""
    if kf is None or kg is None:
        return None
    if kf > kg:
        return Outcome.NOT_LE, ""
    terms, finite, _ = kf
    gterms, gfinite, _ = kg
    if gterms and not gfinite:
        return Outcome.LE, "limit target rank"
    if (terms, 2 * finite) < (gterms, gfinite):
        return Outcome.LE, "doubled rank below target"
    if not terms and not gterms and 2 * finite <= gfinite:
        return Outcome.LE, "finite ranks"
    return None


def _LE(*steps: Step) -> Verdict:
    return Verdict(Outcome.LE, tuple(steps))


def _NOT_LE(*steps: Step) -> Verdict:
    return Verdict(Outcome.NOT_LE, tuple(steps))


class _QueryState(threading.local):
    """The state of the derivations in flight on one thread: the pairs
    being decided, one per open query, and ``blocked``, the number of
    queries answered with a cycle or ``MAX_OPEN_QUERIES`` blocker.  What
    was derived while it moved depends on the open queries, so no cache
    keeps it: ``scratch`` holds such UNKNOWNs until the root returns."""

    def __init__(self) -> None:
        self.in_progress: set[tuple[Term, Term]] = set()
        self.blocked = 0
        self.scratch: dict[tuple[Term, Term], Verdict] = {}


class Engine:
    """Holds the memo table and the normal-form cache; safe for
    concurrent readers, and writes are idempotent (verdicts for a pair
    and normal forms never change).  The state of an in-flight
    derivation (the open queries and the blocked count) is kept per-thread."""

    def __init__(self) -> None:
        self._memo: dict[tuple[Term, Term], Verdict] = {}
        # term -> normal form, filled by rewrite.normalize
        self._nf: dict[Term, Term] = {}
        self._local = _QueryState()
        # held by type-decided verdicts in the memo, so no cycle keeps
        # the engine alive
        self._ref = weakref.ref(self)

    # -- public API ---------------------------------------------------

    def compare(self, f: Term, g: Term) -> Verdict:
        nf = self._nf.get(f)
        if nf is not None:
            ng = self._nf.get(g)
            if ng is not None:
                hit = self._memo.get((nf, ng))
                if hit is not None:
                    return hit
                f, g = nf, ng
        key = (f, g)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        # N-lex and L-gst read only the CB-types, which normalization
        # preserves, so they settle the raw pair as they would its
        # normal forms; the steps are derived when read (_root_steps)
        typed = _type_rule(f._type_key, g._type_key)
        if typed is not None:
            verdict = self._memo[key] = Verdict(typed[0], (), (self._ref, f, g))
            return verdict
        return self._query(f, g)

    def equivalent(self, f: Term, g: Term) -> str:
        fwd = self.compare(f, g).outcome
        bwd = self.compare(g, f).outcome
        if fwd is Outcome.LE and bwd is Outcome.LE:
            return "Yes"
        if fwd is Outcome.NOT_LE or bwd is Outcome.NOT_LE:
            return "No"
        return "Unknown"

    # -- core query ---------------------------------------------------

    def _query(self, f: Term, g: Term) -> Verdict:
        """The verdict on the normal forms of ``f`` and ``g``, for a
        pair ``compare`` found neither in the memo nor settled by type."""
        nf = self._nf.get(f)
        f = nf if nf is not None else rewrite.normalize(f, self)
        nf = self._nf.get(g)
        g = nf if nf is not None else rewrite.normalize(g, self)
        key = (f, g)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        local = self._local
        scratch = local.scratch
        if scratch and key in scratch:
            local.blocked += 1
            return scratch[key]
        in_progress = local.in_progress
        if key in in_progress:
            local.blocked += 1
            return Verdict(Outcome.UNKNOWN, (_step("blocked:cycle", f, g),))
        if len(in_progress) >= MAX_OPEN_QUERIES:
            local.blocked += 1
            return Verdict(Outcome.UNKNOWN, (_step("blocked:depth", f, g),))
        blocked = local.blocked
        in_progress.add(key)
        try:
            verdict = self._decide(f, g)
        finally:
            in_progress.discard(key)
            if not in_progress:
                scratch.clear()
        if verdict.outcome is not Outcome.UNKNOWN or local.blocked == blocked:
            self._memo[key] = verdict
        elif in_progress:
            scratch[key] = verdict
        return verdict

    def _root_steps(self, f: Term, g: Term) -> tuple[Step, ...]:
        """The steps of a type-decided verdict: those the full path
        gives.  On the normal forms ``_decide`` stops at a root rule
        (a sentinel, L-refl, N-lex, an axiom or L-gst), so it issues no
        sub-query."""
        nf, ng = rewrite.normalize(f, self), rewrite.normalize(g, self)
        return self._decide(nf, ng).steps

    def _le(self, f: Term, g: Term) -> bool:
        return self.compare(f, g).outcome is Outcome.LE

    def _not_le(self, f: Term, g: Term) -> bool:
        return self.compare(f, g).outcome is Outcome.NOT_LE

    def _decide(self, f: Term, g: Term) -> Verdict:
        v = _sentinel_verdict(f, g)
        if v is not None:
            return v
        tf, tg = cb_type(f), cb_type(g)
        for rule in _RULES:
            v = rule(self, f, g, tf, tg)
            if v is not None:
                return v
        return Verdict(Outcome.UNKNOWN, (_step("blocked:rules", f, g),))

    # -- the rules, in the order of _RULES -----------------------------

    def _rule_refl(self, f: Term, g: Term, tf, tg) -> Optional[Verdict]:
        return _LE(_step("L-refl", f, g)) if f == g else None

    def _rule_lex(self, f: Term, g: Term, tf, tg) -> Optional[Verdict]:
        typed = _type_rule(tf.lex_key, tg.lex_key)
        if typed is None or typed[0] is Outcome.LE:
            return None
        return _NOT_LE(_step("N-lex", f, g, "tp ", tf, " > tp ", tg))

    def _rule_axioms(self, f: Term, g: Term, tf, tg) -> Optional[Verdict]:
        """The recorded axiom table."""
        lam = _max_atom_level(f)
        if lam is not None and _min_atom_level(g) == lam:
            return _LE(_step("A1", f, g, "level ", lam))
        lam = _pgl_max_level(f)
        if lam is not None:
            if _min_atom_level(g) == lam:
                return _NOT_LE(_step("A4", f, g, "level ", lam))
            if _min_glue_max_level(g) == lam:
                return _NOT_LE(_step("A5b", f, g, "level ", lam))
        lam = _min_glue_max_level(f)
        if lam is not None and _min_atom_level(g) == lam:
            return _NOT_LE(_step("A5a", f, g, "level ", lam))
        if isinstance(f, Omega):
            lam = _pgl_max_level(f.body)
            if lam is not None and _wedge_generator_level(g) == lam:
                return _NOT_LE(_step("A3", f, g, "level ", lam))
        return None

    def _rule_gst(self, f: Term, g: Term, tf, tg) -> Optional[Verdict]:
        typed = _type_rule(tf.lex_key, tg.lex_key)
        if typed is None or typed[0] is Outcome.NOT_LE:
            return None
        return _LE(_step("L-gst", f, g, typed[1]))

    def _rule_min_max(self, f: Term, g: Term, tf, tg) -> Optional[Verdict]:
        lvl = _min_atom_rank(f)
        if lvl is not None and lvl <= tg.rank:
            return _LE(_step("L-min", f, g, "minimum below target rank"))
        cap = _max_atom_level(g)
        if cap is not None and tf.rank <= cap:
            return _LE(_step("L-max", f, g, "maximum above source rank"))
        cap = _pgl_max_level(g)
        if cap is not None and tf.degree == 1 and tf.rank <= ord_mod.succ(cap):
            return _LE(_step("L-max-simple", f, g, "simple below pointed maximum"))
        return None

    def _rule_pgl_mono(self, f: Term, g: Term, tf, tg) -> Optional[Verdict]:
        if not (isinstance(f, PglSet) and isinstance(g, PglSet)):
            return None
        # each summand takes its own copy of a member above it, so m is
        # below len(summands_of(m)) copies of the glued member set
        for m in f.members:
            for s in summands_of(m):
                if not any(self._le(s, t) for t in g.members):
                    return None
        return _LE(_step("L-pgl-mono", f, g, "memberwise into finite gluings"))

    # L-glue: multiset matching with absorbing targets

    def _rule_glue_match(self, f: Term, g: Term, tf, tg) -> Optional[Verdict]:
        fs = summands_of(f)
        targets = multiplicities(summands_of(g))
        # a distinct summand is asked once and its copies share its
        # edges; each copy of a target is one slot
        edges: list[list[int]] = []
        for s, n in multiplicities(fs).items():
            for t in targets:
                if self._absorbs(t, s):
                    break
            else:
                fits = []
                for j, t in enumerate(targets):
                    if not (s == f and t == g) and self._le(s, t):
                        fits.append(j)
                edges += [fits] * n
        if edges and not _bipartite_saturates(edges, len(edges), [*targets.values()]):
            return None
        return _LE(_step("L-glue", f, g, "matched ", len(fs), " summand(s)"))

    def _absorbs(self, target: Term, s: Term) -> bool:
        """Whether ``target`` can receive unboundedly many summands like
        ``s`` (justified by splitting off prefixes / index shuffles)."""
        if isinstance(target, Omega):
            return self._accept_repeated(s, target.body)
        if isinstance(target, PglSet):
            return self._le(s, glue_of(target.members))
        lam = _max_atom_level(target)
        if lam is not None:
            return cb_type(s).rank <= lam
        lvl = _min_atom_rank(target)
        if lvl is not None:
            # bundle must fit in a finite prefix strictly below the limit part
            return cb_type(s).double_key < (lvl.terms, 0)
        return False

    def _accept_repeated(self, s: Term, base: Term) -> bool:
        """Whether countably many copies of ``base`` swallow ``s``."""
        if self._le(s, base):
            return True
        if isinstance(s, Omega):
            return self._accept_repeated(s.body, base)
        if isinstance(s, Glue):
            return all(self._accept_repeated(x, base) for x in s.summands)
        if isinstance(s, Wedge):
            verticals_ok = all(self._le(PglSet(v), base) for v in s.verticals)
            diagonal_ok = all(self._accept_repeated(x, base) for x in s.diagonal)
            return verticals_ok and diagonal_ok
        return False

    def _rule_pgl_lower(self, f: Term, g: Term, tf, tg) -> Optional[Verdict]:
        if isinstance(g, PglSet) and self._le(f, Omega(glue_of(g.members))):
            return _LE(_step("L-pgl-lower", f, g, "via omega copies of the member set"))
        return None

    def _rule_wedge_bounds(self, f: Term, g: Term, tf, tg) -> Optional[Verdict]:
        if isinstance(g, Wedge):
            for bound in _wedge_lower_bounds(g):
                if self._le(f, bound):
                    return _LE(_step("L-wedge-bounds", f, g, "through a lower bound"))
        if isinstance(f, Wedge) and self._le(_wedge_upper_bound(f), g):
            return _LE(_step("L-wedge-bounds", f, g, "through the upper bound"))
        return None

    def _rule_centered(self, f: Term, g: Term, tf, tg) -> Optional[Verdict]:
        if not isinstance(f, CENTERED):
            return None
        if isinstance(g, Glue):
            candidates = g.summands
        elif isinstance(g, Omega):
            candidates = (g.body,)
        else:
            return None
        if all(self._not_le(f, c) for c in candidates):
            return _NOT_LE(_step("N-centered", f, g, "no summand admits the center"))
        return None

    def _rule_pgl_rays(self, f: Term, g: Term, tf, tg) -> Optional[Verdict]:
        """Pointed gluings are centered with a single top point, so a
        reduction between them either maps top to top, forcing each
        source ray (a copy of the glued member set) into finitely many
        target rays, or lands the source's center inside one ray,
        forcing the whole source below a single target member.

        Equal ranks pin the top-to-top case, where two refutations are
        uniform in the prefix length: an omega-degree member set cannot
        land in any finite-degree prefix, and a centered member set
        would have to land in a single member.  With source rank below
        target rank both cases must be refuted; that branch never
        fires (see N-pgl-deg in the module docstring)."""
        if not (isinstance(f, PglSet) and isinstance(g, PglSet)):
            return None
        centered_member_refuted = len(f.members) == 1 and isinstance(
            f.members[0], CENTERED
        ) and all(self._not_le(f.members[0], m) for m in g.members)
        if tf.rank == tg.rank:
            # top maps to top, so source rays land in finite prefixes of
            # target rays; the degree comparison is meaningful here
            _, _, deg_f = _glue_type(f.members)
            _, _, deg_g = _glue_type(g.members)
            if deg_f == OMEGA_DEGREE and deg_g != OMEGA_DEGREE:
                return _NOT_LE(
                    _step("N-pgl-deg", f, g, "rays of omega degree cannot land finitely")
                )
            if centered_member_refuted:
                return _NOT_LE(
                    _step("N-pgl-deg", f, g, "centered ray refuted by every target member")
                )
            return None
        # source rank below target rank: the center lands either inside
        # one target ray (so f itself must fit a single member) or at
        # the top (so the centered ray must fit a single member)
        if centered_member_refuted and all(self._not_le(f, m) for m in g.members):
            return _NOT_LE(
                _step("N-pgl-deg", f, g, "refuted both at the top point and inside rays")
            )
        return None

    def _rule_capacity(self, f: Term, g: Term, tf, tg) -> Optional[Verdict]:
        if tf.rank != tg.rank or not tf.rank.is_successor:
            return None
        fs, gs = summands_of(f), summands_of(g)
        if len(fs) == 1 and len(gs) == 1:
            return None
        r = tf.rank
        ftops = multiplicities(s for s in fs if cb_type(s).rank == r)
        gtops = multiplicities(s for s in gs if cb_type(s).rank == r)
        for s in ftops:
            if cb_type(s).degree != 1 or not isinstance(s, CENTERED):
                return None
        # all pairwise verdicts must be decided, each asked once
        edges: list[list[int]] = []
        for s, n in ftops.items():
            row = []
            for j, t in enumerate(gtops):
                v = self.compare(s, t)
                if v.outcome is Outcome.UNKNOWN:
                    return None
                if v.outcome is Outcome.LE:
                    row.append(j)
            edges += [row] * n
        # each copy of a target summand of degree d has d degree-slots
        caps = [min(n * cb_type(t).degree, len(edges)) for t, n in gtops.items()]
        if _bipartite_saturates(edges, len(edges), caps):
            return None
        return _NOT_LE(
            _step("N-capacity", f, g, "top summands exceed target degree slots")
        )

    def _rule_mono(self, f: Term, g: Term, tf, tg) -> Optional[Verdict]:
        # the steps print the bounds in normal form
        for p in _structural_lower_bounds(f):
            if self._not_le(p, g):
                p = rewrite.normalize(p, self)
                return _NOT_LE(_step("N-mono", p, g, "lower bound of ", f, " refuted"))
        if isinstance(g, Wedge):
            upper = _wedge_upper_bound(g)
            if self._not_le(f, upper):
                upper = rewrite.normalize(upper, self)
                return _NOT_LE(_step("N-mono", f, upper, "upper bound of ", g, " refuted"))
        return None


# tried in this order by Engine._decide after the sentinel verdict; the
# first rule that returns a verdict settles the pair
_RULES = (
    Engine._rule_refl,
    Engine._rule_lex,
    Engine._rule_axioms,
    Engine._rule_gst,
    Engine._rule_min_max,
    Engine._rule_pgl_mono,
    Engine._rule_glue_match,
    Engine._rule_pgl_lower,
    Engine._rule_wedge_bounds,
    Engine._rule_centered,
    Engine._rule_pgl_rays,
    Engine._rule_capacity,
    Engine._rule_mono,
)


def _sentinel_verdict(f: Term, g: Term) -> Optional[Verdict]:
    """L-sent and N-scat: the pairs with a sentinel on either side."""
    if isinstance(g, IdBaire):
        return _LE(_step("L-sent", f, g))
    if isinstance(g, IdQ):
        if isinstance(f, IdBaire):
            return _NOT_LE(_step("N-scat", f, g, "uncountable image"))
        return _LE(_step("L-sent", f, g))
    if isinstance(f, _SENTINELS):
        return _NOT_LE(_step("N-scat", f, g, "target is scattered"))
    return None


# ---------------------------------------------------------------------------
# structural helpers


def _wedge_lower_bounds(w: Wedge) -> list[Term]:
    bounds: list[Term] = [PglSet(v) for v in w.verticals]
    if w.diagonal:
        bounds.append(Omega(glue_of(w.diagonal)))
        bounds.extend(w.diagonal)
    return bounds


def _wedge_upper_bound(w: Wedge) -> Term:
    parts: list[Term] = [PglSet(v) for v in w.verticals]
    if w.diagonal:
        parts.append(Omega(glue_of(w.diagonal)))
    return glue_of(parts)


def _structural_lower_bounds(f: Term) -> list[Term]:
    if isinstance(f, Glue):
        return list(dict.fromkeys(f.summands))
    if isinstance(f, Omega):
        return [f.body]
    if isinstance(f, PglSet):
        return [Omega(glue_of(f.members))] + list(f.members)
    if isinstance(f, Wedge):
        return _wedge_lower_bounds(f)
    return []


def _min_atom_rank(t: Term) -> Optional[Ordinal]:
    """Rank of a normalized minimum form: One or a min atom."""
    if isinstance(t, One):
        return ord_mod.ONE_ORD
    if isinstance(t, MinFn):
        return t.rank
    return None


def _max_atom_level(t: Term) -> Optional[Ordinal]:
    """Level of a normalized maximum form: a limit max atom, or omega
    of the singleton identity at level 1."""
    if isinstance(t, MaxFn) and t.rank.is_limit:
        return t.rank
    if isinstance(t, Omega) and isinstance(t.body, One):
        return ord_mod.ONE_ORD
    return None


def _min_atom_level(t: Term) -> Optional[Ordinal]:
    """Level lambda of a normalized min atom at lambda+1 (limit or 1)."""
    if isinstance(t, MinFn) and t.rank.finite == 1 and t.rank.terms:
        return Ordinal(t.rank.terms, 0)
    if isinstance(t, PglSet) and t.members == (ONE,):
        return ord_mod.ONE_ORD
    return None


def _pgl_max_level(t: Term) -> Optional[Ordinal]:
    if isinstance(t, PglSet) and len(t.members) == 1:
        return _max_atom_level(t.members[0])
    return None


def _min_glue_max_level(t: Term) -> Optional[Ordinal]:
    if isinstance(t, Glue) and len(t.summands) == 2:
        for a, b in ((0, 1), (1, 0)):
            lam = _min_atom_level(t.summands[a])
            if lam is not None and _max_atom_level(t.summands[b]) == lam:
                return lam
    return None


def _wedge_generator_level(t: Term) -> Optional[Ordinal]:
    if isinstance(t, Wedge) and len(t.verticals) == 1 and len(t.verticals[0]) == 1:
        lam = _max_atom_level(t.verticals[0][0])
        if lam is not None and len(t.diagonal) == 1:
            if _min_atom_level(t.diagonal[0]) == lam:
                return lam
    return None


def _bipartite_saturates(edges: list[list[int]], n_left: int, caps: list[int]) -> bool:
    """Augmenting-path matching with capacities; True iff every left
    node ``i`` can be assigned a right node ``j`` that ``edges[i]``
    lists, with at most ``caps[j]`` left nodes on each ``j``.  Each new
    left node searches breadth-first, without recursion: a full right
    node passes the search on to its occupants, and on a free slot each
    left node on the path moves to the right node it reached."""
    holders: list[set[int]] = [set() for _ in caps]
    assigned: dict[int, int] = {}  # left node -> its right node
    for root in range(n_left):
        came: dict[int, int] = {}  # right node -> the left node that reached it
        queue = [root]
        free = None
        for i in queue:
            for j in edges[i]:
                if j not in came:
                    came[j] = i
                    if len(holders[j]) < caps[j]:
                        free = j
                        break
                    queue.extend(holders[j])
            if free is not None:
                break
        if free is None:
            return False
        j = free
        while j is not None:  # ends with the root, which held no slot
            i = came[j]
            left = assigned.get(i)
            if left is not None:
                holders[left].remove(i)
            holders[j].add(i)
            assigned[i] = j
            j = left
    return True


# ---------------------------------------------------------------------------
# a shared engine, kept only because bench/tracing.py patches compare()
# and reads default_engine(); nothing in the library calls them


_default_engine = Engine()


def default_engine() -> Engine:
    return _default_engine


def compare(f: Term, g: Term) -> Verdict:
    return _default_engine.compare(f, g)


def le_compact(f: Term, g: Term) -> bool:
    """Complete comparison on the compact-domain fragment: reduction
    there is exactly the lexicographic order on CB-types."""
    for t in (f, g):
        if not is_compact_domain(t):
            raise ValueError(f"{format_term(t)} does not have compact domain")
        if cb_type(t).rank.is_zero:
            raise ValueError("le_compact needs non-empty terms")
    return lex_le(cb_type(f), cb_type(g))
