"""levels: the generator-set path of the paper, level by level.

A round, on a fresh import and a fresh Engine:

1. the generator sets at 1, 2, w+1, w*2+1 and w^2+1, each with
   ``equivalence_classes`` and ``hasse`` over its raw terms plus the six
   generators of the level;
2. every ordered pair of the centered sets at 3 and at w+2 (the
   double-successor frontier the paper leaves open), timed pair by pair,
   then the same pairs again on the now warm engine, then their
   ``equivalence_classes``;
3. the generator sets at w+2 and at 3, which must be refused with
   ``FeasibilityError``.
"""

from __future__ import annotations

import time

import checks

GENERATOR_LEVELS = ("1", "2", "w+1", "w*2+1", "w^2+1")
# the limit (or 1) below each level that has six generators
SIX_BELOW = {"2": "1", "w+1": "w", "w*2+1": "w*2", "w^2+1": "w^2"}
SIX_LAMBDAS = {"1": (0, 0, 1), "w": (0, 1, 0), "w*2": (0, 2, 0), "w^2": (1, 0, 0)}
FRONTIER = ("3", "w+2")
REFUSED = ("w+2", "3")
TAIL_PERCENTILE = 99
WITH_CLI = False


def make_inputs(seed: int) -> dict:
    # the levels are fixed by the paper; the seed has nothing to vary
    return {"seed": seed}


def prepare(sc, inputs: dict) -> dict:
    po = sc.ordinal.parse_ordinal
    return {"ordinals": {text: po(text) for text in GENERATOR_LEVELS + FRONTIER + tuple(SIX_LAMBDAS)}}


def run_round(sc, state: dict, inputs: dict) -> dict:
    g, ords = sc.generators, state["ordinals"]
    engine = sc.compare.Engine()
    clock = time.perf_counter_ns
    counts = {"raw_terms": 0, "classes": 0, "undecided_pairs": 0, "hasse_edges": 0}
    per_level = {}
    steps = []
    for level in GENERATOR_LEVELS:
        t = clock()
        raw = g.generator_set(ords[level]).raw
        pool = list(raw)
        if level in SIX_BELOW:
            pool += [x for x in g.six_generators(ords[SIX_BELOW[level]]) if x not in raw]
        classes, undecided = g.equivalence_classes(pool, engine)
        edges = g.hasse(pool, engine)
        steps.append(clock() - t)
        per_level[level] = (len(classes), len(undecided))
        counts["raw_terms"] += len(raw)
        counts["classes"] += len(classes)
        counts["undecided_pairs"] += len(undecided)
        counts["hasse_edges"] += len(edges)

    latencies = []
    tables = {}
    centered = {}
    frontier_start = clock()
    for level in FRONTIER:
        raw = g.centered_set(ords[level]).raw
        table = []
        for a in raw:
            for b in raw:
                if a is b:
                    continue
                t = clock()
                verdict = engine.compare(a, b)
                latencies.append(clock() - t)
                table.append(verdict)
        centered[level], tables[level] = raw, table
        counts["raw_terms"] += len(raw)
    warm_start = clock()
    steps.append(warm_start - frontier_start)
    for level in FRONTIER:
        raw = centered[level]
        for a in raw:
            for b in raw:
                if a is not b:
                    engine.compare(a, b)
    warm_ns = clock() - warm_start
    steps.append(warm_ns)
    frontier_classes = {}
    for level in FRONTIER:
        t = clock()
        classes, undecided = g.equivalence_classes(centered[level], engine)
        steps.append(clock() - t)
        frontier_classes[level] = [rep for rep, _ in classes]
        counts["classes"] += len(classes)
        counts["undecided_pairs"] += len(undecided)
    refused = []
    for level in REFUSED:
        t = clock()
        try:
            g.generator_set(ords[level])
        except g.FeasibilityError:
            refused.append(level)
        steps.append(clock() - t)

    problems = []
    if refused != list(REFUSED):
        problems.append(f"refused only {refused} of {list(REFUSED)}")
    for level in ("w+1", "w*2+1", "w^2+1"):
        problems += checks.class_count(f"generators at {level}", *per_level[level], 6)
    frontier_pairs = len(latencies)
    verdicts = {level: [v.outcome.name for v in tables[level]] for level in FRONTIER}
    return {
        "op_ns": latencies,
        "warm_ns": [warm_ns],
        "warm_ops_per_pass": frontier_pairs,
        "steps_ns": steps,
        "decided": sum(v != "UNKNOWN" for vs in verdicts.values() for v in vs),
        "attempted": 3 * len(GENERATOR_LEVELS) + 2 * len(FRONTIER) + len(REFUSED) + 2 * frontier_pairs,
        "failed": 0,
        "counts": {f"generators.{k}": v for k, v in counts.items()},
        "verdicts": verdicts,
        "problems": problems,
        "live": {"engine": engine, "centered": centered, "frontier_classes": frontier_classes},
    }


def check(sc, state: dict, live: dict, inputs: dict, first: dict, fresh) -> list[str]:
    """``first``: the verdict tables of the first round; ``state`` and
    ``live`` belong to the last round, ``fresh()`` returns a new import."""
    problems = []
    g, engine, po = sc.generators, live["engine"], sc.ordinal.parse_ordinal
    classes, undecided = g.equivalence_classes(g.centered_set(po("2")).raw, engine)
    problems += checks.class_count("centered set at 2", len(classes), len(undecided), 3)
    for lam_text, lam in SIX_LAMBDAS.items():
        six = [sc.term.parse_term(text) for text in checks.six_text(lam)]
        name = dict(zip(six, checks.SIX_NAMES))
        edges = g.hasse(six, engine)
        problems += checks.covering(lam_text, [(name[a], name[b]) for a, b in edges])

    # reflexivity on this round's import, before fresh() replaces the
    # modules that the rewrite rules import at call time
    for level in FRONTIER:
        problems += checks.reflexive(
            [(str(t), engine.compare(t, t).outcome.name) for t in live["centered"][level]],
            f"centered set at {level}",
        )
    sc2 = fresh()
    engine2 = sc2.compare.Engine()
    for level in FRONTIER:
        raw = live["centered"][level]
        index = {t: k for k, t in enumerate(raw)}
        table = {}
        it = iter(first[level])
        for a in raw:
            for b in raw:
                if a is not b:
                    table[index[a], index[b]] = next(it)
        reps = [index[t] for t in live["frontier_classes"][level]]
        problems += checks.table_triangles(reps, lambda a, b: "LE" if a == b else table[a, b])
        # the same table in reverse order, on a new import and a new engine
        raw2 = sc2.generators.centered_set(sc2.ordinal.parse_ordinal(level)).raw
        pairs = [(a, b) for a in raw2 for b in raw2 if a is not b]
        backward = [engine2.compare(a, b).outcome.name for a, b in reversed(pairs)]
        problems += checks.same_verdicts(
            first[level], backward[::-1], f"frontier {level} reversed on a fresh engine"
        )
    return problems
