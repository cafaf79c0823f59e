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
             number of summands.
    L-pgl-mono
             pointed gluings are monotone under memberwise reduction
             into finite gluings of the target members.
    L-pgl-lower
             omega copies of the glued member set reduce into the
             pointed gluing, so anything below the former is below the
             latter.
    L-wedge-bounds
             each vertical pointed gluing and omega copies of the
             diagonal sit below a wedge; a wedge sits below the gluing
             of those bounds.
    L-trans  bounded transitivity through a gluing or omega component.
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
             between pointed gluings of equal rank, rays must land in
             finitely many rays, so an omega-degree member set cannot
             reduce to a finite-degree one.
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

Verdicts carry a shallow trace naming the rule and the sub-queries it
used, formatted to text only when read.  Queries are memoized on
normalized pairs; in-progress queries re-entered during their own
derivation yield UNKNOWN for that path (coinductive failure), and a
depth bound turns runaway searches into UNKNOWN with a "depth" blocker.

The CB-type is an invariant of equivalence, so N-lex and L-gst, which
read only the two types, answer a raw pair as they would its normal
forms.  ``Engine.compare`` therefore asks them before normalizing a
pair whose normal forms are not both cached.  Such a type-decided
verdict is memoized under the raw pair, and derives its steps when
first read: it normalizes both terms and takes the root rule that
fires on them, so its trace is the one the full path gives.

An :class:`Engine` owns its memo and its normal-form cache, and runs
normalization on itself: the rewrite rules that decide reducibilities
query the engine that asked for the normal form, within its depth
bound.  Every caller passes its engine explicitly, so a verdict depends
on the pair and the depth bound alone, never on another caller's
caches; dropping an engine drops its caches.
"""

from __future__ import annotations

import threading
from enum import Enum
from typing import Iterable, Optional

from . import ordinal as ord_mod
from . import rewrite
from .ordinal import Ordinal
from .rank import OMEGA_DEGREE, CbType, cb_type, is_compact_domain, lex_le
from .term import (
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
    format_term,
    glue_of,
    summands_of,
)


class Outcome(Enum):
    LE = "le"
    NOT_LE = "not_le"
    UNKNOWN = "unknown"


_SENTINELS = (IdQ, IdBaire)

TraceStep = tuple[str, str]
# (rule, f, g, note parts); g is None for a step that names no target
Step = tuple[str, Term, Term | None, tuple]


class Verdict:
    """An outcome and the steps of its derivation.  A verdict that
    ``Engine.compare`` took from the CB-types alone holds its engine and
    raw pair instead, and derives its steps when they are first read."""

    __slots__ = ("outcome", "_steps", "_pending")

    def __init__(
        self,
        outcome: Outcome,
        steps: tuple[Step, ...] = (),
        pending: tuple["Engine", Term, Term] | None = None,
    ) -> None:
        self.outcome = outcome
        self._steps = steps
        self._pending = pending

    @property
    def steps(self) -> tuple[Step, ...]:
        pending = self._pending
        if pending is not None:
            engine, f, g = pending
            self._steps = engine._root_steps(f, g)
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


# k-range for member-into-finite-gluing searches
FIN_GLUE_BOUND = 3


def _step(rule: str, f: Term, g: Term, *note) -> Step:
    return (rule, f, g, note)


def _render(rule: str, f: Term, g: Optional[Term], note: tuple) -> TraceStep:
    note = "".join(format_term(p) if isinstance(p, Term) else str(p) for p in note)
    if g is None:
        return (rule, f"{format_term(f)} {note}")
    text = f"{format_term(f)} <= {format_term(g)}"
    if note:
        text += f" [{note}]"
    return (rule, text)


def _gst_note(tf: CbType, tg: CbType) -> Optional[str]:
    """The L-gst condition on two CB-types: the note its step cites, or
    None when the rank arithmetic does not apply."""
    if tg.limit and tf.rank_key <= tg.rank_key:
        return "limit target rank"
    if tf.double_key < tg.rank_key:
        return "doubled rank below target"
    if not tf.rank.terms and not tg.rank.terms and tf.double_key <= tg.rank_key:
        return "finite ranks"
    return None


def _LE(*steps: Step) -> Verdict:
    return Verdict(Outcome.LE, tuple(steps))


def _NOT_LE(*steps: Step) -> Verdict:
    return Verdict(Outcome.NOT_LE, tuple(steps))


class _QueryState(threading.local):
    """The state of the derivations in flight on one thread: the pairs
    being decided, and one taint mark per open query.  Taint marks a
    computation that saw a cycle or the depth bound; its UNKNOWN is
    context-dependent and must not be cached."""

    def __init__(self) -> None:
        self.in_progress: set[tuple[Term, Term]] = set()
        self.taint: list[bool] = []


class Engine:
    """Holds the memo table and the normal-form cache; safe for
    concurrent readers, and writes are idempotent (verdicts for a pair
    and normal forms never change).  The state of an in-flight
    derivation (the query stack and taint marks) is kept per-thread."""

    def __init__(self, depth: int = 64) -> None:
        if depth < 1:
            raise ValueError(f"derivation depth must be positive, got {depth}")
        self.depth = depth
        self._memo: dict[tuple[Term, Term], Verdict] = {}
        # term -> normal form, filled by rewrite.normalize
        self._nf: dict[Term, Term] = {}
        self._local = _QueryState()

    # -- public API ---------------------------------------------------

    def compare(self, f: Term, g: Term) -> Verdict:
        nf = self._nf.get(f)
        if nf is not None:
            ng = self._nf.get(g)
            if ng is not None:
                return self._query(nf, ng, self.depth)
        key = (f, g)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        # N-lex and L-gst read only the CB-types, which normalization
        # preserves, so they settle the raw pair as they would its
        # normal forms; the steps are derived when read (_root_steps)
        if not isinstance(f, _SENTINELS) and not isinstance(g, _SENTINELS):
            tf, tg = cb_type(f), cb_type(g)
            if not lex_le(tf, tg):
                outcome = Outcome.NOT_LE
            elif _gst_note(tf, tg) is not None:
                outcome = Outcome.LE
            else:
                outcome = None
            if outcome is not None:
                verdict = self._memo[key] = Verdict(outcome, (), (self, f, g))
                return verdict
        if nf is None:
            nf = rewrite.normalize(f, self)
        ng = self._nf.get(g)
        if ng is None:
            ng = rewrite.normalize(g, self)
        return self._query(nf, ng, self.depth)

    def equivalent(self, f: Term, g: Term) -> str:
        fwd = self.compare(f, g).outcome
        bwd = self.compare(g, f).outcome
        if fwd is Outcome.LE and bwd is Outcome.LE:
            return "Yes"
        if fwd is Outcome.NOT_LE or bwd is Outcome.NOT_LE:
            return "No"
        return "Unknown"

    def dominates(self, fs: Iterable[Term], gs: Iterable[Term]) -> Verdict:
        """Every member of ``fs`` reduces to some member of ``gs``."""
        gs = list(gs)
        steps: list[Step] = []
        unknown = False
        for f in fs:
            verdicts = [self.compare(f, g) for g in gs]
            hit = next((i for i, v in enumerate(verdicts) if v.outcome is Outcome.LE), None)
            if hit is not None:
                steps.append(_step("L-glue", f, gs[hit], "domination witness"))
                continue
            if all(v.outcome is Outcome.NOT_LE for v in verdicts):
                # cite the refutation of the first target; all failed
                steps.extend(verdicts[0].steps)
                return Verdict(Outcome.NOT_LE, tuple(steps))
            unknown = True
            steps.append(("blocked:pair", f, None, ("vs every target undecided",)))
        if unknown:
            return Verdict(Outcome.UNKNOWN, tuple(steps))
        return Verdict(Outcome.LE, tuple(steps))

    # -- core query ---------------------------------------------------

    def _query(self, f: Term, g: Term, depth: int) -> Verdict:
        key = (f, g)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        local = self._local
        in_progress, taint = local.in_progress, local.taint
        if key in in_progress:
            if taint:
                taint[-1] = True
            return Verdict(Outcome.UNKNOWN, (_step("blocked:cycle", f, g),))
        if depth <= 0:
            if taint:
                taint[-1] = True
            return Verdict(Outcome.UNKNOWN, (_step("blocked:depth", f, g),))
        in_progress.add(key)
        taint.append(False)
        try:
            verdict = self._decide(f, g, depth)
        finally:
            in_progress.discard(key)
            tainted = taint.pop()
            if tainted and taint:
                taint[-1] = True
        if verdict.outcome is not Outcome.UNKNOWN or not tainted:
            self._memo[key] = verdict
        return verdict

    def _root_steps(self, f: Term, g: Term) -> tuple[Step, ...]:
        """The steps of a type-decided verdict: those the full path
        gives.  On the normal forms ``_decide`` stops at a root rule
        (a sentinel, L-refl, N-lex, an axiom or L-gst), so it issues no
        sub-query."""
        nf, ng = rewrite.normalize(f, self), rewrite.normalize(g, self)
        return self._decide(nf, ng, self.depth).steps

    def _le(self, f: Term, g: Term, depth: int) -> bool:
        return self._query(f, g, depth).outcome is Outcome.LE

    def _not_le(self, f: Term, g: Term, depth: int) -> bool:
        return self._query(f, g, depth).outcome is Outcome.NOT_LE

    def _decide(self, f: Term, g: Term, depth: int) -> Verdict:
        d = depth - 1

        # sentinels
        if isinstance(g, IdBaire):
            return _LE(_step("L-sent", f, g))
        if isinstance(g, IdQ):
            if isinstance(f, IdBaire):
                return _NOT_LE(_step("N-scat", f, g, "uncountable image"))
            return _LE(_step("L-sent", f, g))
        if isinstance(f, _SENTINELS):
            return _NOT_LE(_step("N-scat", f, g, "target is scattered"))

        if f == g:
            return _LE(_step("L-refl", f, g))

        tf, tg = cb_type(f), cb_type(g)
        if not lex_le(tf, tg):
            return _NOT_LE(_step("N-lex", f, g, "tp ", tf, " > tp ", tg))

        ax = self._axioms(f, g)
        if ax is not None:
            return ax

        note = _gst_note(tf, tg)
        if note is not None:
            return _LE(_step("L-gst", f, g, note))
        v = self._rule_min_max(f, g, tf, tg)
        if v is not None:
            return v
        if isinstance(f, PglSet) and isinstance(g, PglSet):
            v = self._rule_pgl_mono(f, g, d)
            if v is not None:
                return v
        v = self._rule_glue_match(f, g, d)
        if v is not None:
            return v
        if isinstance(g, PglSet):
            body = Omega(glue_of(g.members))
            if self._le(f, rewrite.normalize(body, self), d):
                return _LE(_step("L-pgl-lower", f, g, "via omega copies of the member set"))
        v = self._rule_wedge_bounds(f, g, d)
        if v is not None:
            return v
        v = self._rule_centered(f, g, d)
        if v is not None:
            return v
        v = self._rule_pgl_rays(f, g, tf, tg, d)
        if v is not None:
            return v
        v = self._rule_capacity(f, g, tf, tg, d)
        if v is not None:
            return v
        v = self._rule_mono(f, g, d)
        if v is not None:
            return v
        return Verdict(Outcome.UNKNOWN, (_step("blocked:rules", f, g),))

    # -- recorded axiom table ------------------------------------------

    def _axioms(self, f: Term, g: Term) -> Optional[Verdict]:
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

    # -- individual rules ----------------------------------------------

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

    def _rule_pgl_mono(self, f: PglSet, g: PglSet, d: int) -> Optional[Verdict]:
        for m in f.members:
            bound = max(len(summands_of(m)), FIN_GLUE_BOUND)
            if not self._le_fin_glue(m, g.members, bound, d):
                return None
        return _LE(_step("L-pgl-mono", f, g, "memberwise into finite gluings"))

    def _le_fin_glue(self, x: Term, members: tuple[Term, ...], bound: int, d: int) -> bool:
        """Whether the normal form ``x`` reduces to k copies of the
        glued member set for some k <= ``bound``."""
        for k in range(1, bound + 1):
            if self._le(x, rewrite.normalize(glue_of(members * k), self), d):
                return True
        return False

    # L-glue: multiset matching with absorbing targets

    def _rule_glue_match(self, f: Term, g: Term, d: int) -> Optional[Verdict]:
        fs, gs = summands_of(f), summands_of(g)
        if not fs:
            return _LE(_step("L-glue", f, g, "empty gluing"))

        leftovers: list[Term] = []
        for s in fs:
            if any(self._absorbs(t, s, d) for t in gs):
                continue
            leftovers.append(s)
        if leftovers:
            # direct capacity-1 slots, found by augmenting paths
            edges: dict[int, list[int]] = {}
            for i, s in enumerate(leftovers):
                edges[i] = [
                    j
                    for j, t in enumerate(gs)
                    if not (s == f and t == g) and self._le(s, t, d)
                ]
            if not _bipartite_saturates(edges, len(leftovers), len(gs)):
                return None
        return _LE(_step("L-glue", f, g, "matched ", len(fs), " summand(s)"))

    def _absorbs(self, target: Term, s: Term, d: int) -> bool:
        """Whether ``target`` can receive unboundedly many summands like
        ``s`` (justified by splitting off prefixes / index shuffles)."""
        if isinstance(target, Omega):
            return self._accept_repeated(s, target.body, d)
        if isinstance(target, PglSet):
            return self._le(s, rewrite.normalize(glue_of(target.members), self), d)
        lam = _max_atom_level(target)
        if lam is not None:
            return cb_type(s).rank <= lam
        lvl = _min_atom_rank(target)
        if lvl is not None:
            # bundle must fit in a finite prefix strictly below the limit part
            limit_part, _ = ord_mod.split(lvl)
            return ord_mod.double(cb_type(s).rank) < limit_part
        return False

    def _accept_repeated(self, s: Term, base: Term, d: int) -> bool:
        """Whether countably many copies of ``base`` swallow ``s``."""
        if self._le(s, base, d):
            return True
        if isinstance(s, Omega):
            return self._accept_repeated(s.body, base, d)
        if isinstance(s, Glue):
            return all(self._accept_repeated(x, base, d) for x in s.summands)
        if isinstance(s, Wedge):
            verticals_ok = all(
                self._le(rewrite.normalize(PglSet(v), self), base, d) for v in s.verticals
            )
            diagonal_ok = all(self._accept_repeated(x, base, d) for x in s.diagonal)
            return verticals_ok and diagonal_ok
        return False

    def _rule_wedge_bounds(self, f: Term, g: Term, d: int) -> Optional[Verdict]:
        if isinstance(g, Wedge):
            for bound in _wedge_lower_bounds(g, self):
                if self._le(f, bound, d):
                    return _LE(_step("L-wedge-bounds", f, g, "through a lower bound"))
        if isinstance(f, Wedge):
            upper = rewrite.normalize(_wedge_upper_bound(f), self)
            if self._le(upper, g, d):
                return _LE(_step("L-wedge-bounds", f, g, "through the upper bound"))
        return None

    def _rule_centered(self, f: Term, g: Term, d: int) -> Optional[Verdict]:
        if not isinstance(f, (One, MinFn, PglSet)):
            return None
        if isinstance(g, Glue):
            candidates = list(g.summands)
        elif isinstance(g, Omega):
            candidates = [g.body]
        else:
            return None
        verdicts = [self._query(f, c, d) for c in candidates]
        for c, v in zip(candidates, verdicts):
            if v.outcome is Outcome.LE:
                return _LE(_step("L-trans", f, c, "centered into one summand"))
        if all(v.outcome is Outcome.NOT_LE for v in verdicts):
            return _NOT_LE(_step("N-centered", f, g, "no summand admits the center"))
        return None

    def _rule_pgl_rays(self, f: Term, g: Term, tf, tg, d: int) -> Optional[Verdict]:
        """Pointed gluings are centered with a single top point, so a
        reduction between them either maps top to top, forcing each
        source ray (a copy of the glued member set) into finitely many
        target rays, or lands the source's center inside one ray,
        forcing the whole source below a single target member.

        Equal ranks pin the top-to-top case, where two refutations are
        uniform in the prefix length: an omega-degree member set cannot
        land in any finite-degree prefix, and a centered member set
        would have to land in a single member.  With source rank below
        target rank both cases must be refuted."""
        if not (isinstance(f, PglSet) and isinstance(g, PglSet)):
            return None
        centered_member_refuted = len(f.members) == 1 and isinstance(
            f.members[0], (One, MinFn, PglSet)
        ) and all(self._not_le(f.members[0], m, d) for m in g.members)
        if tf.rank == tg.rank:
            # top maps to top, so source rays land in finite prefixes of
            # target rays; the degree comparison is meaningful here
            deg_f = cb_type(glue_of(f.members)).degree
            deg_g = cb_type(glue_of(g.members)).degree
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
        if centered_member_refuted and all(self._not_le(f, m, d) for m in g.members):
            return _NOT_LE(
                _step("N-pgl-deg", f, g, "refuted both at the top point and inside rays")
            )
        return None

    def _rule_capacity(self, f: Term, g: Term, tf, tg, d: int) -> Optional[Verdict]:
        if tf.rank != tg.rank or not tf.rank.is_successor:
            return None
        fs, gs = summands_of(f), summands_of(g)
        if len(fs) == 1 and len(gs) == 1:
            return None
        r = tf.rank
        ftops = [s for s in fs if cb_type(s).rank == r]
        gtops = [s for s in gs if cb_type(s).rank == r]
        if not ftops:
            return None
        for s in ftops:
            st = cb_type(s)
            if st.degree != 1 or not isinstance(s, (One, MinFn, PglSet)):
                return None
        # all pairwise verdicts must be decided
        edges: dict[int, list[int]] = {i: [] for i in range(len(ftops))}
        for i, s in enumerate(ftops):
            for j, t in enumerate(gtops):
                v = self._query(s, t, d)
                if v.outcome is Outcome.UNKNOWN:
                    return None
                if v.outcome is Outcome.LE:
                    edges[i].append(j)
        slot_caps: list[int] = []
        for t in gtops:
            degree = cb_type(t).degree
            cap = len(ftops) if degree == OMEGA_DEGREE else int(degree)
            slot_caps.append(min(cap, len(ftops)))
        expanded: dict[int, list[int]] = {i: [] for i in range(len(ftops))}
        offset = []
        pos = 0
        for j, cap in enumerate(slot_caps):
            offset.append((pos, pos + cap))
            pos += cap
        for i in range(len(ftops)):
            for j in edges[i]:
                lo, hi = offset[j]
                expanded[i].extend(range(lo, hi))
        if _bipartite_saturates(expanded, len(ftops), pos):
            return None
        return _NOT_LE(
            _step("N-capacity", f, g, "top summands exceed target degree slots")
        )

    def _rule_mono(self, f: Term, g: Term, d: int) -> Optional[Verdict]:
        for p in _structural_lower_bounds(f, self):
            p = rewrite.normalize(p, self)
            if self._not_le(p, g, d):
                return _NOT_LE(
                    _step("N-mono", p, g, "lower bound of ", f, " refuted")
                )
        if isinstance(g, Wedge):
            upper = rewrite.normalize(_wedge_upper_bound(g), self)
            if self._not_le(f, upper, d):
                return _NOT_LE(
                    _step("N-mono", f, upper, "upper bound of ", g, " refuted")
                )
        return None


# ---------------------------------------------------------------------------
# structural helpers


def _wedge_lower_bounds(w: Wedge, engine: Engine) -> list[Term]:
    bounds = [rewrite.normalize(PglSet(v), engine) for v in w.verticals]
    if w.diagonal:
        bounds.append(rewrite.normalize(Omega(glue_of(w.diagonal)), engine))
        bounds.extend(rewrite.normalize(x, engine) for x in w.diagonal)
    return bounds


def _wedge_upper_bound(w: Wedge) -> Term:
    parts: list[Term] = [PglSet(v) for v in w.verticals]
    if w.diagonal:
        parts.append(Omega(glue_of(w.diagonal)))
    return glue_of(parts)


def _structural_lower_bounds(f: Term, engine: Engine) -> list[Term]:
    if isinstance(f, Glue):
        return list(dict.fromkeys(f.summands))
    if isinstance(f, Omega):
        return [f.body]
    if isinstance(f, PglSet):
        return [Omega(glue_of(f.members))] + list(f.members)
    if isinstance(f, Wedge):
        return _wedge_lower_bounds(f, engine)
    return []


def _min_atom_rank(t: Term) -> Optional[Ordinal]:
    """Rank of a normalized minimum form: One or a min atom."""
    if isinstance(t, One):
        return ord_mod.from_int(1)
    if isinstance(t, MinFn):
        return t.rank
    return None


def _max_atom_level(t: Term) -> Optional[Ordinal]:
    """Level of a normalized maximum form: a limit max atom, or omega
    of the singleton identity at level 1."""
    if isinstance(t, MaxFn) and t.rank.is_limit:
        return t.rank
    if isinstance(t, Omega) and isinstance(t.body, One):
        return ord_mod.from_int(1)
    return None


def _min_atom_level(t: Term) -> Optional[Ordinal]:
    """Level lambda of a normalized min atom at lambda+1 (limit or 1)."""
    if isinstance(t, MinFn) and t.rank.finite == 1 and t.rank.terms:
        return Ordinal(t.rank.terms, 0)
    if isinstance(t, PglSet) and t.members == (One(),):
        return ord_mod.from_int(1)
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


def _bipartite_saturates(edges: dict[int, list[int]], n_left: int, n_right: int) -> bool:
    """Kuhn's augmenting-path matching; True iff every left node can be
    matched to a distinct right node."""
    match_right: dict[int, int] = {}

    def try_assign(i: int, seen: set[int]) -> bool:
        for j in edges.get(i, ()):
            if j in seen:
                continue
            seen.add(j)
            if j not in match_right or try_assign(match_right[j], seen):
                match_right[j] = i
                return True
        return False

    for i in range(n_left):
        if not try_assign(i, set()):
            return False
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
