"""census-random: seeded pairs over a pool of random terms, cold then warm.

Each round gets a fresh import of scatcalc (so every module-level cache
is empty) and a fresh Engine.  Phase 1 compares every pair once: this is
where normalization, term construction and the rule search do their
work.  Phase 2 repeats the same pairs on the same engine, which now
answers from its memo.
"""

from __future__ import annotations

import random
import time

import checks
import gen

POOL = 1500
PAIRS = 6000
WARM_PASSES = 5
TAIL_PERCENTILE = 99
WITH_CLI = False
TRIPLES = 2000


def make_inputs(seed: int) -> dict:
    inputs = gen.census_inputs(seed, POOL, PAIRS)
    inputs["seed"] = seed
    return inputs


def prepare(sc, inputs: dict) -> dict:
    return {"pool": [sc.term.parse_term(text) for text in inputs["pool_text"]]}


def run_round(sc, state: dict, inputs: dict) -> dict:
    engine = sc.compare.Engine()
    pool, pairs = state["pool"], inputs["pairs"]
    clock = time.perf_counter_ns
    latencies = []
    cold = []
    start = clock()
    for i, j in pairs:
        t = clock()
        verdict = engine.compare(pool[i], pool[j])
        latencies.append(clock() - t)
        cold.append(verdict)
    cold_end = clock()
    warm_ns = []
    for _ in range(WARM_PASSES):
        t = clock()
        warm = [engine.compare(pool[i], pool[j]) for i, j in pairs]
        warm_ns.append(clock() - t)
    verdicts = [v.outcome.name for v in cold]
    warm_verdicts = [v.outcome.name for v in warm]
    return {
        "op_ns": latencies,
        "warm_ns": warm_ns,
        "warm_ops_per_pass": len(pairs),
        "steps_ns": [cold_end - start] + warm_ns,
        "decided": sum(v != "UNKNOWN" for v in verdicts),
        "attempted": (1 + WARM_PASSES) * len(pairs),
        "failed": 0,
        "verdicts": verdicts,
        "problems": checks.same_verdicts(verdicts, warm_verdicts, "warm against cold verdicts"),
        "live": {"engine": engine},
    }


def check(sc, state: dict, live: dict, inputs: dict, cold: list[str], fresh) -> list[str]:
    """``cold``: the verdicts of the first round; ``state`` and ``live``
    belong to the last round, ``fresh()`` returns a new import."""
    problems = []
    pool_text, pairs = inputs["pool_text"], inputs["pairs"]
    engine, pool = live["engine"], state["pool"]

    def verdict(a, b) -> str:
        return engine.compare(a, b).outcome.name

    problems += checks.cb_order(inputs["pool"], pairs, cold)
    problems += checks.reflexive(
        [(pool_text[k], verdict(pool[k], pool[k])) for k in range(len(pool))], "census pool"
    )
    problems += _triangles(pool, pool_text, pairs, cold, verdict, inputs["seed"])

    parse = sc.term.parse_term
    finite = inputs["finite"]
    cases = []
    for f, g in zip(finite[::2], finite[1::2]):
        v = verdict(parse(f"{gen.image_size(f)}*one"), parse(f"{gen.image_size(g)}*one"))
        cases.append((f, g, v, sc.oracle.brute_force_le(sc.oracle.FiniteFn(*f), sc.oracle.FiniteFn(*g))))
    problems += checks.finite_pairs(cases)
    compact = inputs["compact"]
    problems += checks.compact_pairs(
        (x, y, verdict(parse(gen.compact_text(*x)), parse(gen.compact_text(*y))))
        for x, y in zip(compact[::2], compact[1::2])
    )

    # the same pairs in reverse order, on a new import and a new engine
    sc2 = fresh()
    pool2 = [sc2.term.parse_term(text) for text in pool_text]
    engine2 = sc2.compare.Engine()
    backward = [engine2.compare(pool2[i], pool2[j]).outcome.name for i, j in reversed(pairs)]
    problems += checks.same_verdicts(cold, backward[::-1], "reversed order on a fresh engine")
    return problems


def _triangles(pool, pool_text, pairs, cold, verdict, seed: int) -> list[str]:
    le_from: dict[int, list[int]] = {}
    for (i, j), v in zip(pairs, cold):
        if v == "LE" and i != j:
            le_from.setdefault(i, []).append(j)
    chains = [(i, j) for i, outs in le_from.items() for j in outs if j in le_from]
    if not chains:
        return ["census: no LE, LE chain to sample triples from"]
    rng = random.Random(seed)
    triples = []
    for _ in range(TRIPLES):
        i, j = rng.choice(chains)
        k = rng.choice(le_from[j])
        triples.append(
            (pool_text[i], pool_text[j], pool_text[k], "LE", "LE", verdict(pool[i], pool[k]))
        )
    return checks.no_triangle(triples)
