import ast
import gc
import itertools
import random
import sys
import threading
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings

from scatcalc import rewrite
from scatcalc.compare import (
    _LE,
    _NOT_LE,
    _RULES,
    CENTERED,
    Engine,
    Outcome,
    _bipartite_saturates,
    _step,
    _type_rule,
    le_compact,
)
from scatcalc.generators import centered_raw
from scatcalc.ordinal import double, parse_ordinal as po
from scatcalc.rank import cb_type, lex_le
from scatcalc.rewrite import normalize
from scatcalc.term import Glue, MinFn, ONE, Omega, PglSet, parse_term, summands_of

from conftest import census_inputs, load_script, random_term, terms


def outcome(a, b):
    return Engine().compare(parse_term(a), parse_term(b)).outcome


def test_compare_examples():
    assert outcome("glue(3*min(2))", "glue(5*min(2))") is Outcome.LE
    assert outcome("max(w)", "min(w+1)") is Outcome.LE
    assert outcome("pgl{max(w)}", "omega(min(w+1))") is Outcome.NOT_LE
    assert outcome("omega(min(w+1))", "pgl{max(w)}") is Outcome.NOT_LE
    assert outcome("one", "0*empty") is Outcome.NOT_LE
    assert outcome("glue(4*one)", "idq") is Outcome.LE


def test_sentinel_table():
    assert outcome("idq", "idbaire") is Outcome.LE
    assert outcome("idbaire", "idq") is Outcome.NOT_LE
    assert outcome("idq", "idq") is Outcome.LE
    assert outcome("idbaire", "omega(one)") is Outcome.NOT_LE
    assert outcome("idq", "max(w^2)") is Outcome.NOT_LE
    assert outcome("max(w^2)", "idq") is Outcome.LE
    assert outcome("wedge({max(w)} | {min(w+1)})", "idbaire") is Outcome.LE


def test_axiom_instances_at_levels():
    for lam in ("1", "w", "w*2", "w^2"):
        one_up = f"min({lam}+1)" if lam != "1" else "min(2)"
        pgl_max = f"pgl{{max({lam})}}"
        mix = f"glue({one_up}, max({lam}))"
        assert outcome(f"max({lam})", one_up) is Outcome.LE  # A1
        assert outcome(pgl_max, one_up) is Outcome.NOT_LE  # A4
        assert outcome(mix, one_up) is Outcome.NOT_LE  # A5a
        assert outcome(pgl_max, mix) is Outcome.NOT_LE  # A5b
        wedge = f"wedge({{max({lam})}} | {{{one_up}}})"
        assert outcome(f"omega({pgl_max})", wedge) is Outcome.NOT_LE  # A3


def test_traces_cite_consistent_rule_families():
    cases = [
        ("glue(3*min(2))", "glue(5*min(2))"),
        ("max(w)", "min(w+1)"),
        ("pgl{max(w)}", "omega(min(w+1))"),
        ("omega(min(w+1))", "pgl{max(w)}"),
        ("glue(min(w+1), max(w))", "min(w+1)"),
        ("pgl{pgl{max(w)}}", "pgl{omega(min(w+1))}"),
    ]
    engine = Engine()
    for a, b in cases:
        v = engine.compare(parse_term(a), parse_term(b))
        assert v.trace
        rules = {rule for rule, _ in v.trace}
        if v.outcome is Outcome.LE:
            assert all(r.startswith("L-") or r == "A1" for r in rules)
        elif v.outcome is Outcome.NOT_LE:
            assert all(r.startswith("N-") or r in ("A3", "A4", "A5a", "A5b") for r in rules)


def test_unknown_reports_blockers():
    # whether the level-2 maximum fits below the level-3 minimum is
    # outside every rule; the verdict must be UNKNOWN with a blocker
    v = Engine().compare(parse_term("max(2)"), parse_term("min(3)"))
    assert v.outcome is Outcome.UNKNOWN
    assert v.trace
    assert all(rule.startswith("blocked") for rule, _ in v.trace)


def test_pgl_monotone_across_ranks():
    # memberwise Lambda_1 <= V_2 lifts through the pointed gluing, one
    # rank apart; the ray obstruction must not misfire here
    assert outcome("pgl{omega(one)}", "pgl{pgl{one}}") is Outcome.LE
    assert outcome("omega(one)", "pgl{one}") is Outcome.LE
    assert outcome("pgl{pgl{one}}", "pgl{omega(one)}") is Outcome.NOT_LE


PGL_MONO_SPREAD = [
    # the summands of one source member lie below distinct target members
    ("pgl{glue(pgl{omega(one)}, omega(pgl{one}))}", "pgl{pgl{omega(one)}, omega(pgl{one})}"),
    # each copy of a repeated summand takes its own copy of the target member
    ("pgl{glue(3*pgl{omega(one)}, omega(pgl{one}))}", "pgl{pgl{omega(one)}, omega(pgl{one})}"),
    ("pgl{glue(5*pgl{omega(one)}, omega(pgl{one}))}", "pgl{pgl{omega(one)}, omega(pgl{one})}"),
    ("pgl{glue(pgl{max(w)}, omega(min(w+1)))}", "pgl{pgl{max(w)}, omega(min(w+1))}"),
]


@pytest.mark.parametrize("f, g", PGL_MONO_SPREAD)
def test_pgl_mono_places_each_summand_below_a_target_member(f, g):
    v = Engine().compare(parse_term(f), parse_term(g))
    assert v.outcome is Outcome.LE
    assert v.trace[0][0] == "L-pgl-mono"


def test_pgl_mono_needs_every_summand_below_a_target_member():
    # omega(pgl{one}) is below no member of the target, so the pair is
    # refuted although the member's other summand fits
    v = Engine().compare(
        parse_term("pgl{glue(pgl{omega(one)}, omega(pgl{one}))}"), parse_term("pgl{pgl{omega(one)}}")
    )
    assert v.outcome is Outcome.NOT_LE
    assert v.trace[0][0] == "N-pgl-deg"


def test_equivalent_examples():
    engine = Engine()
    assert engine.equivalent(parse_term("glue(one, omega(one))"), parse_term("omega(one)")) == "Yes"
    assert engine.equivalent(parse_term("min(2)"), parse_term("max(1)")) == "No"


def test_equivalent_reads_both_directions():
    # "Yes" iff both directions are LE, "No" iff either is NOT_LE, else
    # "Unknown"; at 3 the set has pairs of each kind
    items = centered_raw(po("3"))[:40]
    engine, ref = Engine(), Engine()
    answers = set()
    for f, g in itertools.permutations(items, 2):
        fwd, bwd = ref.compare(f, g).outcome, ref.compare(g, f).outcome
        if fwd is Outcome.LE and bwd is Outcome.LE:
            expected = "Yes"
        elif Outcome.NOT_LE in (fwd, bwd):
            expected = "No"
        else:
            expected = "Unknown"
        assert engine.equivalent(f, g) == expected, (f, g)
        answers.add(expected)
    assert {"Yes", "No"} <= answers


def test_trace_text_is_formatted_only_when_read(monkeypatch):
    def fail(t):
        raise AssertionError("trace text formatted before it was read")

    monkeypatch.setattr(sys.modules["scatcalc.compare"], "format_term", fail)
    v = Engine().compare(parse_term("glue(pgl{max(w)}, one)"), parse_term("omega(min(w+1))"))
    monkeypatch.undo()
    assert v.outcome is Outcome.NOT_LE
    assert v.trace and all(isinstance(text, str) for _, text in v.trace)


TYPE_DECIDED = [
    ("pgl{max(w), min(w+1)}", "wedge({max(w)} | {min(w+1)})", "N-lex"),
    ("2*pgl{one}", "max(w)", "L-gst"),
    # the types alone give LE, but the normal form omega(one) matches A1
    ("glue(one, omega(one))", "pgl{one}", "A1"),
]


@pytest.mark.parametrize("f, g, rule", TYPE_DECIDED)
def test_type_decided_pairs_normalize_only_when_the_trace_is_read(f, g, rule):
    f, g = parse_term(f), parse_term(g)
    engine = Engine()
    v = engine.compare(f, g)
    assert not engine._nf
    full = Engine()
    for t in (f, g):
        normalize(t, full)
    w = full.compare(f, g)
    assert v.outcome is w.outcome
    assert v.trace == w.trace and v.trace[0][0] == rule
    assert engine._nf


@given(terms(), terms())
@settings(max_examples=200, deadline=None)
def test_type_decided_verdicts_match_the_full_path(f, g):
    full = Engine()
    # the invariant the type shortcut rests on
    assert cb_type(normalize(f, full)) == cb_type(f)
    assert cb_type(normalize(g, full)) == cb_type(g)
    v, w = Engine().compare(f, g), full.compare(f, g)
    assert v.outcome is w.outcome and v.trace == w.trace


@pytest.mark.parametrize("source", ["census 1", "census 2", "centered 2", "centered w+1"])
def test_the_type_check_agrees_with_the_rule_loop(source):
    # every ordered pair of normal forms, on a fresh engine, where
    # compare answers N-lex and L-gst from the type keys, has the
    # outcome and steps of _decide, which runs the rule loop
    audit = load_script("audit.py")
    kind, arg = source.split()
    loop = Engine()
    if kind == "census":
        forms = audit.census_forms(int(arg), 150, loop)
    else:
        forms = audit.level_forms(audit.centered_raw, arg, loop)
    engine, typed = Engine(), 0
    for f in forms:
        for g in forms:
            v, w = engine.compare(f, g), loop._decide(f, g)
            typed += v._pending is not None
            assert v.outcome is w.outcome and v.steps == w.steps, (f, g)
    # some census pairs need the rule loop, and some are decided by
    # their types; the centered set at w+1 has a single type
    assert typed < len(forms) ** 2
    assert typed or source == "centered w+1"


def _mixed_pairs():
    """The type-decided pairs above and 100 seeded random pairs, some
    of which need the full path."""
    pairs = [(parse_term(f), parse_term(g)) for f, g, _ in TYPE_DECIDED]
    rng = random.Random(11)
    pool = [random_term(rng, 4) for _ in range(40)]
    return pairs + [(rng.choice(pool), rng.choice(pool)) for _ in range(100)]


def test_a_dropped_engine_is_freed_without_the_collector():
    pairs = _mixed_pairs()
    engine = Engine()
    verdicts = [engine.compare(f, g) for f, g in pairs]
    assert all(v._pending is not None for v in verdicts[: len(TYPE_DECIDED)])
    assert engine._nf
    ref = weakref.ref(engine)
    collections = []

    def hook(phase, info):
        collections.append(phase)

    gc.callbacks.append(hook)
    try:
        # the verdicts stay alive and must not keep their engine alive
        del engine
        freed = ref() is None
    finally:
        gc.callbacks.remove(hook)
    assert not collections
    assert freed
    assert verdicts[0]._pending is not None


def test_a_trace_reads_the_same_after_its_engine_is_dropped():
    pairs = _mixed_pairs()
    engine, twin = Engine(), Engine()
    kept = [engine.compare(f, g) for f, g in pairs]
    before = [twin.compare(f, g).trace for f, g in pairs]
    ref = weakref.ref(engine)
    del engine
    assert ref() is None
    assert [v.trace for v in kept] == before
    assert [v.outcome for v in kept] == [twin.compare(f, g).outcome for f, g in pairs]


def test_concurrent_readers_derive_one_trace():
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            engine = Engine()
            v = engine.compare(parse_term("glue(one, omega(one))"), parse_term("pgl{one}"))
            traces: list = []
            threads = [threading.Thread(target=lambda: traces.append(v.trace)) for _ in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
            assert not any(th.is_alive() for th in threads)
            assert len(traces) == 8 and all(t == traces[0] for t in traces)
            assert traces[0][0][0] == "A1"
    finally:
        sys.setswitchinterval(old)


def test_le_compact_examples():
    assert le_compact(parse_term("2*min(3)"), parse_term("1*min(4)")) is True
    assert le_compact(parse_term("2*min(3)"), parse_term("1*min(3)")) is False
    assert le_compact(parse_term("min(2)"), parse_term("min(2)")) is True


def test_compact_terms_classify_as_min_multiples():
    # every non-empty compact-domain term is equivalent to degree many
    # copies of the min atom at its rank, and the engine derives it
    engine = Engine()
    for text in ("pgl{min(2), one}", "glue(min(3), pgl{pgl{one}})", "pgl{one, pgl{one}}"):
        t = parse_term(text)
        tp = cb_type(t)
        canonical = Glue([MinFn(tp.rank)] * int(tp.degree))
        assert engine.equivalent(t, canonical) == "Yes", text


def test_le_compact_preconditions():
    with pytest.raises(ValueError):
        le_compact(parse_term("omega(one)"), parse_term("min(2)"))
    with pytest.raises(ValueError):
        le_compact(parse_term("0*empty"), parse_term("min(2)"))


def test_compare_module_is_reachable():
    import scatcalc
    import scatcalc.compare as compare_module

    assert compare_module.Engine is Engine
    assert scatcalc.compare.Engine is Engine


def test_engine_questions_read_no_enum_member_through_the_class():
    # Outcome.LE inside a function is an attribute read on the Enum
    # class, which before Python 3.12 goes through the metaclass's
    # __getattr__; the modules read the names bound beside the class
    import scatcalc.compare as compare_module
    import scatcalc.generators as generators_module

    reads = []
    for module in (compare_module, generators_module):
        tree = ast.parse(Path(module.__file__).read_text())
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "Outcome"
                    and node.attr in Outcome.__members__
                ):
                    reads.append(f"{module.__name__}:{node.lineno}")
    assert not reads
    # the type check returns shared results, not a new pair per call
    key = lambda text: parse_term(text)._type_key  # noqa: E731
    assert _type_rule(key("2*pgl{one}"), key("max(w)")) is _type_rule(key("one"), key("max(w*2)"))
    assert _type_rule(key("max(w+1)"), key("one")) is _type_rule(key("min(3)"), key("2*one"))
    assert _type_rule(key("one"), key("min(3)")) is _type_rule(key("pgl{one}"), key("max(w+3)"))


class _NoDefaultEngine:
    """Stands in for the module-level engine and fails on any use."""

    def __getattr__(self, name):
        raise AssertionError(f"the default engine was used (.{name})")


README_COMMANDS = [
    ["type", "pgl{max(w)}"],
    ["normalize", "glue(one, one, omega(one))"],
    ["compare", "pgl{max(w)}", "omega(min(w+1))"],
    ["compare", "max(w)", "min(w+1)", "--trace"],
    ["compare", "one", "2*one", "--json"],
    ["generators", "1", "--raw"],
    ["generators", "2", "--centered", "--classes"],
    ["hasse", "w+1", "--dot"],
    ["oracle", "3 2 0 1 0", "5 3 0 1 2 0 1"],
]


def test_engine_leaves_no_trace_in_the_default_engine(monkeypatch, capsys):
    import scatcalc.compare as compare_module
    from scatcalc.cli import main
    from scatcalc.generators import centered_set, equivalence_classes, hasse
    from scatcalc.rank import is_centered
    from scatcalc.rewrite import apply_rule, rule_names

    monkeypatch.setattr(compare_module, "_default_engine", _NoDefaultEngine())
    engine = Engine()
    engine.compare(parse_term("pgl{omega(pgl{omega(one)})}"), parse_term("pgl{omega(pgl{one})}"))
    assert engine._memo and engine._nf

    for argv in README_COMMANDS:
        assert main(argv) in (0, 1), argv
    capsys.readouterr()
    engine = Engine()
    raw = centered_set(po("2")).raw
    classes, _ = equivalence_classes(raw, engine)
    assert hasse([rep for rep, _ in classes], engine)
    t = parse_term(
        "glue(glue(min(3)), omega(omega(one)), pgl{one, omega(one)}, glue(pgl{one}, one),"
        " pgl{wedge({one} | {one})}, wedge({one}, {omega(one)} | {one}))"
    )
    for name in rule_names():
        assert apply_rule(t, name, engine) is not None, name
    assert is_centered(normalize(parse_term("pgl{max(w)}"), engine), engine)


@pytest.mark.parametrize(
    "left, right",
    [
        ("max(2)", "min(3)"),
        ("pgl{one, omega(one)}", "pgl{omega(one)}"),
        ("pgl{omega(pgl{omega(one)})}", "pgl{omega(pgl{one})}"),
    ],
)
def test_a_memo_hit_on_normal_forms_makes_no_query(left, right):
    engine = Engine()
    f, g = parse_term(left), parse_term(right)
    nf, ng = normalize(f, engine), normalize(g, engine)
    queries = []
    plain = engine._query

    def query(a, b):
        queries.append((a, b))
        return plain(a, b)

    engine._query = query
    # a miss: both normal forms are cached, their verdict is not
    assert ng not in engine._memo.get(nf, {})
    first = engine.compare(f, g)
    assert queries[0] == (f, g)
    assert engine._memo[nf][ng] is first
    # the query pointed the source at its normal form's row
    assert engine._memo[f] is engine._memo[nf]
    # a hit: the row's own verdict, and no query
    queries.clear()
    assert engine.compare(f, g) is first
    assert engine.compare(nf, ng) is first
    assert queries == []


def test_spellings_of_one_normal_form_share_its_row(monkeypatch):
    # two spellings of pgl{one}, and a target of their CB-type, so no
    # question here is settled by the types
    f1, f2 = parse_term("min(2)"), parse_term("glue(one, min(2))")
    g = parse_term("pgl{2*one}")
    engine = Engine()
    assert engine.compare(f1, f2).outcome is Outcome.LE
    nf = normalize(f1, engine)
    assert nf not in (f1, f2)
    row = engine._memo[nf]
    assert engine._memo[f1] is row and engine._memo[f2] is row
    first = engine.compare(f1, g)
    assert row[normalize(g, engine)] is first
    queries = []
    monkeypatch.setattr(engine, "_query", lambda a, b: queries.append((a, b)))
    assert engine.compare(f2, g) is first
    assert queries == []


def test_a_type_decided_verdict_survives_the_normalization_of_its_source():
    f, g = parse_term("glue(one, min(2))"), parse_term("max(w)")
    engine = Engine()
    ng = normalize(g, engine)
    typed = engine.compare(f, g)
    assert typed.outcome is Outcome.LE and f not in engine._nf
    # the source's own row, until a query normalizes it
    assert engine._memo[f] == {ng: typed}
    assert engine.compare(f, parse_term("pgl{2*one}")).outcome is Outcome.LE
    nf = engine._nf[f]
    assert nf is not f and engine._memo[f] is engine._memo[nf]
    assert engine.compare(f, g) is typed
    assert engine.compare(nf, ng) is typed


def ask_in_threads(questions, n=8):
    """The outcomes ``n`` threads get, started at once on one engine,
    each asking ``questions(k)``, its own list of pairs, in order."""
    engine, barrier = Engine(), threading.Barrier(n)
    results: dict[int, list] = {}

    def ask(k):
        barrier.wait(timeout=60)
        results[k] = [engine.compare(f, g).outcome for f, g in questions(k)]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(k,)) for k in range(n)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
        assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(old)
    assert sorted(results) == list(range(n))
    return results


def test_threads_sharing_an_engine_get_the_single_thread_verdicts():
    inputs = census_inputs(1, 1500, 6000)
    pool = [parse_term(text) for text in inputs["pool_text"]]
    pairs = [(pool[i], pool[j]) for i, j in inputs["pairs"][:1500]]
    alone = Engine()
    expected = [alone.compare(f, g).outcome for f, g in pairs]
    # each thread starts the round at its own offset
    shifts = [k * len(pairs) // 8 for k in range(8)]
    results = ask_in_threads(lambda k: pairs[shifts[k]:] + pairs[: shifts[k]])
    for k, outcomes in results.items():
        assert outcomes == expected[shifts[k]:] + expected[: shifts[k]]


def test_a_row_is_merged_from_a_copy_while_another_thread_grows_it():
    # the types settle the source against each max atom, in its own row
    compare_file = sys.modules["scatcalc.compare"].__file__
    f = parse_term("glue(one, min(2))")
    targets = [parse_term(f"max(w*{j})") for j in range(1, 21)]
    engine = Engine()
    asked = [engine.compare(f, g) for g in targets]
    own = engine._memo[f]
    more = (parse_term(f"max(w*{j})") for j in itertools.count(21))

    def grow(frame, event, arg):
        # at each C call of the engine's code, as a thread that read the
        # old row before the query pointed the source elsewhere would
        if event == "c_call" and frame.f_code.co_filename == compare_file:
            g = next(more)
            own[g] = Engine().compare(f, g)

    sys.setprofile(grow)
    try:
        verdict = engine.compare(f, parse_term("pgl{2*one}"))
    finally:
        sys.setprofile(None)
    assert verdict.outcome is Outcome.LE
    row = engine._memo[f]
    assert row is engine._memo[engine._nf[f]] and row is not own
    assert all(row[g] is v for g, v in zip(targets, asked))


def test_verdicts_do_not_depend_on_query_order():
    rng = random.Random(7)
    pool = [random_term(rng, 4) for _ in range(120)]
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(400)]
    first, second = Engine(), Engine()
    forward = [first.compare(f, g).outcome for f, g in pairs]
    backward = [second.compare(f, g).outcome for f, g in reversed(pairs)]
    assert forward == backward[::-1]


def test_depth_bound_yields_unknown(monkeypatch):
    compare_module = sys.modules["scatcalc.compare"]
    plain, rules = compare_module._step, []

    def spy(rule, *args):
        rules.append(rule)
        return plain(rule, *args)

    f, g = parse_term("max(2)"), parse_term("max(3)")
    assert Engine().compare(f, g).outcome is Outcome.LE
    monkeypatch.setattr(compare_module, "_step", spy)
    monkeypatch.setattr(compare_module, "MAX_OPEN_QUERIES", 1)
    assert Engine().compare(f, g).outcome is Outcome.UNKNOWN
    assert "blocked:depth" in rules


def test_a_question_the_types_settle_is_answered_past_the_bound(monkeypatch):
    # the pair is pgl{one} <=? pgl{pgl{one}}, and L-pgl-mono asks
    # one <=? pgl{one}, which L-gst settles from the types: no query opens
    compare_module = sys.modules["scatcalc.compare"]
    monkeypatch.setattr(compare_module, "MAX_OPEN_QUERIES", 1)
    engine = Engine()
    verdict = engine.compare(parse_term("min(2)"), parse_term("min(3)"))
    assert verdict.outcome is Outcome.LE
    assert verdict.trace[0][0] == "L-pgl-mono"
    assert engine._local.blocked == 0


def test_a_blocked_unknown_is_not_memoized(monkeypatch):
    compare_module = sys.modules["scatcalc.compare"]
    f, g = parse_term("max(2)"), parse_term("max(3)")
    engine = Engine()
    monkeypatch.setattr(compare_module, "MAX_OPEN_QUERIES", 1)
    assert engine.compare(f, g).outcome is Outcome.UNKNOWN
    assert not any(engine._memo.values())
    # with the bound restored the same engine decides the pair afresh
    monkeypatch.undo()
    assert engine.compare(f, g).outcome is Outcome.LE
    assert Engine().compare(f, g).outcome is Outcome.LE


def test_a_term_whose_normalization_was_blocked_points_at_no_row(monkeypatch):
    compare_module = sys.modules["scatcalc.compare"]
    monkeypatch.setattr(compare_module, "MAX_OPEN_QUERIES", 0)
    f = parse_term("pgl{wedge({one} | {one})}")
    engine = Engine()
    assert engine.compare(f, parse_term("pgl{pgl{pgl{one}}}")).outcome is Outcome.UNKNOWN
    assert engine._local.blocked > 0
    # what it normalized to may be reduced less than its normal form
    assert f not in engine._nf and f not in engine._memo


def test_a_query_reentered_while_open_is_blocked(monkeypatch):
    compare_module = sys.modules["scatcalc.compare"]

    def ask_again(engine, f, g, tf, tg):
        return engine.compare(f, g)

    monkeypatch.setattr(compare_module, "_RULES", (ask_again,) + compare_module._RULES)
    f, g = parse_term("min(2)"), parse_term("min(3)")
    engine = Engine()
    verdict = engine.compare(f, g)
    assert verdict.outcome is Outcome.UNKNOWN
    assert verdict.trace[0][0] == "blocked:cycle"
    assert engine._local.blocked == 1
    assert normalize(g, engine) not in engine._memo.get(normalize(f, engine), {})


def test_blocked_verdicts_do_not_outlive_their_root_query(monkeypatch):
    compare_module = sys.modules["scatcalc.compare"]
    monkeypatch.setattr(compare_module, "MAX_OPEN_QUERIES", 4)
    f = parse_term("pgl{" * 8 + "one" + "}" * 8)
    g = parse_term("pgl{" * 8 + "omega(one)" + "}" * 8)
    engine = Engine()
    assert engine.compare(f, g).outcome is Outcome.UNKNOWN
    assert engine._local.blocked > 0
    assert engine._local.scratch == {}


@given(terms(), terms())
@settings(max_examples=25, deadline=None)
def test_no_rule_runs_past_the_open_query_bound(f, g):
    compare_module = sys.modules["scatcalc.compare"]
    plain, opened = Engine._decide, []

    def spy(engine, *args):
        opened.append((len(engine._local.in_progress), compare_module.MAX_OPEN_QUERIES))
        return plain(engine, *args)

    pairs = [(parse_term("min(2)"), parse_term("min(3)")), (f, g), (g, f)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Engine, "_decide", spy)
        for bound in (1, 2, 3):
            mp.setattr(compare_module, "MAX_OPEN_QUERIES", bound)
            engine = Engine()
            for a, b in pairs:
                engine.compare(a, b)
    assert opened and all(n <= bound for n, bound in opened)


# -- invariants ---------------------------------------------------------------


@given(terms())
@settings(max_examples=150, deadline=None)
def test_reflexivity(t):
    assert Engine().compare(t, t).outcome is Outcome.LE


@given(terms())
@settings(max_examples=150, deadline=None)
def test_normalization_coherence(t):
    engine = Engine()
    n = normalize(t, engine)
    assert engine.compare(t, n).outcome is Outcome.LE
    assert engine.compare(n, t).outcome is Outcome.LE


@given(terms(), terms())
@settings(max_examples=200, deadline=None)
def test_nlex_guard(f, g):
    if Engine().compare(f, g).outcome is Outcome.LE:
        assert lex_le(cb_type(f), cb_type(g))


@given(terms(), terms())
@settings(max_examples=150, deadline=None)
def test_general_structure_sufficiency(f, g):
    if double(cb_type(f).rank) < cb_type(g).rank:
        assert Engine().compare(f, g).outcome is Outcome.LE


@given(terms())
@settings(max_examples=80, deadline=None)
def test_monotone_counts(g):
    engine = Engine()
    for m, n in [(1, 2), (2, 3), (1, 4)]:
        f_m = Glue([g] * m)
        f_n = Glue([g] * n)
        assert engine.compare(f_m, f_n).outcome is Outcome.LE
        assert engine.compare(f_m, Omega(g)).outcome is Outcome.LE


def test_context_monotonicity_sampled(rng):
    """Gluing, omega and pointed gluing are monotone, so a proven
    reduction must never be refuted once both sides are wrapped in the
    same context (Unknown is acceptable, NOT_LE is a bug)."""
    engine = Engine()
    pool = [random_term(rng, 3) for _ in range(250)]
    checked = 0
    for _ in range(4000):
        f, g, h = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        if engine.compare(f, g).outcome is not Outcome.LE:
            continue
        checked += 1
        assert engine.compare(Glue([f, h]), Glue([g, h])).outcome is not Outcome.NOT_LE
        assert engine.compare(Omega(f), Omega(g)).outcome is not Outcome.NOT_LE
        if f != parse_term("0*empty") and g != parse_term("0*empty"):
            assert engine.compare(PglSet([f]), PglSet([g])).outcome is not Outcome.NOT_LE
    assert checked > 100


def test_no_le_le_notle_triangle_sampled(rng):
    engine = Engine()
    pool = [random_term(rng, 4) for _ in range(300)]
    for _ in range(2000):
        f, g, h = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        if (
            engine.compare(f, g).outcome is Outcome.LE
            and engine.compare(g, h).outcome is Outcome.LE
        ):
            assert engine.compare(f, h).outcome is not Outcome.NOT_LE


@pytest.mark.parametrize("seed", [1, 2])
def test_census_normal_forms_have_no_transitivity_violation(seed):
    # every ordered pair of the first 150 distinct normal forms of a
    # census pool, classified on one engine by the audit script: a
    # NOT_LE pair (a, c) with some b where a <= b and b <= c are both LE
    # is a violation; a pair LE both ways is two normal forms of one
    # class, and over the whole pool seed 1 has at most 10, seed 2 8
    audit = load_script("audit.py")
    engine = Engine()
    forms = audit.census_forms(seed, 150, engine)
    assert len(forms) == 150
    violations, _, counts, equivalent = audit.transitivity(forms, engine)
    assert counts[Outcome.LE] and counts[Outcome.NOT_LE]
    assert violations == []
    assert equivalent <= {1: 10, 2: 8}[seed]


def test_n_mono_prints_its_refuted_bound_in_normal_form():
    # the vertical set keeps min(w+1) beside pgl{max(w)}, which
    # dominates it without absorbing it; the refuted lower bound, the
    # pointed gluing of that set, is printed in normal form, without
    # the dominated member
    engine = Engine()
    f = parse_term("wedge({min(w+1), pgl{max(w)}} | {max(w+1)})")
    g = parse_term("min(w+2)")
    assert normalize(f, engine).verticals == (parse_term("glue(min(w+1), pgl{max(w)})").summands,)
    v = engine.compare(f, g)
    assert v.outcome is Outcome.NOT_LE
    assert v.trace == (
        (
            "N-mono",
            "pgl{pgl{max(w)}} <= pgl{min(w+1)} [lower bound of "
            "wedge({min(w+1), pgl{max(w)}} | {omega(pgl{max(w)})}) refuted]",
        ),
    )


def test_rank_one_fragment_complete_and_matches_formula():
    """Gluings of the two rank-1 generators compare exactly by image
    cardinality (with omega absorbing), with no Unknowns."""
    def build(a, b):
        parts = [ONE] * a + [Omega(ONE)] * b
        return Glue(parts) if len(parts) != 1 else parts[0]

    engine = Engine()
    shapes = [(a, b) for a in range(0, 5) for b in range(0, 3) if a + b >= 1]
    for (a1, b1), (a2, b2) in itertools.product(shapes, repeat=2):
        f, g = build(a1, b1), build(a2, b2)
        expected = (b2 > 0) if b1 > 0 else (b2 > 0 or a1 <= a2)
        v = engine.compare(f, g)
        assert v.outcome is not Outcome.UNKNOWN
        assert (v.outcome is Outcome.LE) == expected, (a1, b1, a2, b2)


def test_capacity_refutes_a_top_summand_with_no_slot():
    # the one top summand of f fits no degree-slot of the target's
    f = parse_term("glue(omega(pgl{min(w^2+1)}), pgl{pgl{omega(pgl{max(w^2)})}})")
    g = parse_term("omega(pgl{pgl{min(w^2+1)}})")
    v = Engine().compare(f, g)
    assert v.outcome is Outcome.NOT_LE
    assert [rule for rule, _ in v.trace] == ["N-capacity"]


@pytest.mark.parametrize(
    "edges, caps, saturates",
    [
        pytest.param({0: [0], 1: [0], 2: [0]}, [2], False, id="three-into-capacity-2"),
        pytest.param({0: [0], 1: [0], 2: [0]}, [3], True, id="three-into-capacity-3"),
        # 0 and 1 fill target 0 first; 2 fits only once one of them moves to 1
        pytest.param({0: [0, 1], 1: [0, 1], 2: [0]}, [2, 1], True, id="move-out-of-full"),
        pytest.param({0: [0], 1: [0], 2: [0, 1]}, [1, 1], False, id="no-room-to-move"),
    ],
)
def test_bipartite_saturates_with_capacities(edges, caps, saturates):
    assert _bipartite_saturates(edges, len(edges), caps) is saturates


def test_bipartite_saturates_a_long_chain_without_recursion():
    # each new left node finds its own right node behind a full one;
    # a recursive search moved every earlier occupant down the chain
    edges = {i: [max(i - 1, 0), i] for i in range(1100)}
    start = time.perf_counter()
    assert _bipartite_saturates(edges, 1100, [1] * 1100)
    assert not _bipartite_saturates(edges, 1100, [1] * 1099 + [0])
    assert time.perf_counter() - start < 1


def brute_force_saturates(edges, n_left, caps):
    """Whether some choice of one listed right node per left node keeps
    every right node within its capacity."""
    for choice in itertools.product(*(edges.get(i, []) for i in range(n_left))):
        if all(choice.count(j) <= cap for j, cap in enumerate(caps)):
            return True
    return False


def test_bipartite_saturates_agrees_with_brute_force():
    rng = random.Random(7)
    for _ in range(400):
        n_left, n_right = rng.randint(0, 6), rng.randint(1, 4)
        edges = {i: rng.sample(range(n_right), rng.randint(0, n_right)) for i in range(n_left)}
        caps = [rng.randint(0, 2) for _ in range(n_right)]
        expected = brute_force_saturates(edges, n_left, caps)
        assert _bipartite_saturates(edges, n_left, caps) is expected, (edges, caps)


# -- repeated summands --------------------------------------------------------


@pytest.mark.parametrize(
    "left, right",
    [("glue(199*pgl{one}, one)", "200*pgl{one}"), ("200*pgl{one}", "glue(200*min(3))")],
)
def test_repeated_summands_are_asked_once(left, right):
    # one question per distinct summand: asked per copy, these pairs
    # made 158,804 and 79,801 queries
    engine = Engine()
    queries = []
    plain = engine.compare

    def query(a, b):
        queries.append((a, b))
        return plain(a, b)

    engine.compare = query
    assert engine.compare(parse_term(left), parse_term(right)).outcome is Outcome.LE
    # the root question and the rules' questions, all through compare
    assert 1 < len(queries) <= 10


def per_copy_glue_match(engine, f, g, tf, tg):
    """L-glue as it was asked per copy: the reference for the rule that
    asks each distinct summand once."""
    fs, gs = summands_of(f), summands_of(g)
    leftovers = [s for s in fs if not any(engine._absorbs(t, s) for t in gs)]
    if leftovers:
        edges = {
            i: [j for j, t in enumerate(gs) if not (s == f and t == g) and engine._le(s, t)]
            for i, s in enumerate(leftovers)
        }
        if not _bipartite_saturates(edges, len(leftovers), [1] * len(gs)):
            return None
    return _LE(_step("L-glue", f, g, "matched ", len(fs), " summand(s)"))


def per_copy_capacity(engine, f, g, tf, tg):
    """N-capacity as it was asked per copy."""
    if tf.rank != tg.rank or not tf.rank.is_successor:
        return None
    fs, gs = summands_of(f), summands_of(g)
    if len(fs) == 1 and len(gs) == 1:
        return None
    ftops = [s for s in fs if cb_type(s).rank == tf.rank]
    gtops = [s for s in gs if cb_type(s).rank == tf.rank]
    if any(cb_type(s).degree != 1 or not isinstance(s, CENTERED) for s in ftops):
        return None
    edges = {i: [] for i in range(len(ftops))}
    for i, s in enumerate(ftops):
        for j, t in enumerate(gtops):
            v = engine.compare(s, t)
            if v.outcome is Outcome.UNKNOWN:
                return None
            if v.outcome is Outcome.LE:
                edges[i].append(j)
    caps = [min(cb_type(t).degree, len(ftops)) for t in gtops]
    if _bipartite_saturates(edges, len(ftops), caps):
        return None
    return _NOT_LE(_step("N-capacity", f, g, "top summands exceed target degree slots"))


def per_copy_absorb(summands, engine):
    """R-absorb asked per copy until no copy goes: each time, the first
    copy that another copy absorbs goes.  The summands it keeps, or
    None when none goes, as ``rewrite._absorb`` answers."""
    kept = list(summands)
    while True:
        for i, s in enumerate(kept):
            if any(j != i and engine._absorbs(u, s) for j, u in enumerate(kept)):
                del kept[i]
                break
        else:
            return None if len(kept) == len(summands) else kept


def multiplicity_results(terms):
    """Outcomes, traces and normal forms over ``terms`` on a fresh engine."""
    engine = Engine()
    verdicts = [engine.compare(f, g) for f in terms for g in terms]
    return (
        [v.outcome for v in verdicts],
        [v.trace for v in verdicts],
        [normalize(t, engine) for t in terms],
    )


def test_repeated_summands_match_the_per_copy_rules(monkeypatch):
    terms = load_script("fingerprint.py").multiplicity_terms()
    compare_module = sys.modules["scatcalc.compare"]
    ran = set()

    def spy(rule):
        def run(*args):
            ran.add(rule)
            return rule(*args)

        return run

    per_copy = {
        Engine._rule_glue_match: spy(per_copy_glue_match),
        Engine._rule_capacity: spy(per_copy_capacity),
    }
    with monkeypatch.context() as mp:
        mp.setattr(compare_module, "_RULES", tuple(per_copy.get(r, r) for r in _RULES))
        mp.setattr(rewrite, "_absorb", spy(per_copy_absorb))
        reference = multiplicity_results(terms)
    # the reference ran the per-copy rules
    assert ran == {per_copy_glue_match, per_copy_capacity, per_copy_absorb}
    outcomes, traces, forms = multiplicity_results(terms)
    assert outcomes == reference[0]
    assert traces == reference[1]
    assert forms == reference[2]
    # the pairs repeat summands, and each of the three rules acts on them
    engine = Engine()
    assert any(len(set(summands_of(t))) < len(summands_of(t)) for t in terms)
    assert {"L-glue", "N-capacity"} <= {rule for trace in traces for rule, _ in trace}
    assert any(rewrite.apply_rule(t, "R-absorb", engine) is not None for t in terms)
