import gc
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scatcalc import rewrite, term
from scatcalc.compare import Engine, Outcome
from scatcalc.rank import cb_type
from scatcalc.rewrite import NormalizationLimitError, apply_rule, normalize, rule_names
from scatcalc.term import Glue, MaxFn, MinFn, ONE, Omega, PglSet, Wedge, parse_term

from conftest import census_inputs, terms


def norm(text):
    return normalize(parse_term(text), Engine())


def test_normalize_examples():
    assert norm("glue(glue(one, one), 0*empty)") == parse_term("2*one")
    assert norm("glue(one, one, omega(one))") == parse_term("omega(one)")
    assert norm("max(2)") == parse_term("omega(pgl{omega(one)})")
    assert norm("pgl{one, omega(one)}") == parse_term("pgl{omega(one)}")
    assert norm("wedge({max(w)} | {})") == parse_term("pgl{max(w)}")


def test_minmax_expansions():
    assert norm("min(1)") == ONE
    assert norm("min(2)") == parse_term("pgl{one}")
    assert norm("min(w+3)") == parse_term("pgl{pgl{min(w+1)}}")
    assert norm("max(0)") == parse_term("0*empty") or norm("max(0)") == parse_term("empty")
    assert norm("max(1)") == parse_term("omega(one)")
    assert norm("max(w+1)") == parse_term("omega(pgl{max(w)})")
    assert norm("min(w+1)") == parse_term("min(w+1)")  # limit+1 atoms stay
    assert norm("max(w^2)") == parse_term("max(w^2)")


def test_omega_rules():
    assert norm("omega(0*empty)") == parse_term("empty")
    assert norm("omega(omega(one))") == parse_term("omega(one)")
    # omega distributes over a gluing, then omega(min(w+1)) absorbs
    # omega(one), since one reduces to min(w+1)
    t = parse_term("omega(glue(one, min(w+1)))")
    assert apply_rule(t, "R-omega", Engine()) == parse_term("glue(omega(one), omega(min(w+1)))")
    assert norm("omega(glue(one, min(w+1)))") == parse_term("omega(min(w+1))")
    assert norm("glue(omega(one), omega(one))") == parse_term("omega(one)")
    # a limit max atom is omega copies of itself; at a successor the
    # atom expands (R-minmax) and the omega stays
    assert norm("omega(max(w))") == parse_term("max(w)")
    assert apply_rule(parse_term("omega(max(w+1))"), "R-omega", Engine()) is None
    assert norm("omega(max(w+1))") == parse_term("omega(pgl{max(w)})")


def test_pgl_absorb():
    # a pointed gluing splits off finite prefixes of its member set
    assert norm("glue(pgl{max(w)}, max(w))") == parse_term("pgl{max(w)}")
    assert norm("glue(pgl{one}, one, one)") == parse_term("pgl{one}")
    # a min atom is not absorbed: the pair is strictly above the pgl alone
    assert norm("glue(pgl{max(w)}, min(w+1))") == parse_term(
        "glue(pgl{max(w)}, min(w+1))"
    )
    # copies of a pointed gluing do not absorb one another
    assert norm("3*pgl{one}") == parse_term("3*pgl{one}")


@pytest.mark.parametrize(
    "text, normal_form",
    [
        # a min atom at a limit plus one takes what ranks below the limit
        ("glue(one, min(w*2+1))", "min(w*2+1)"),
        ("pgl{pgl{glue(one, min(w^2+1))}}", "pgl{pgl{min(w^2+1)}}"),
        # a limit max atom takes its own copies and what ranks up to it
        ("glue(2000*pgl{one}, 2000*max(w))", "max(w)"),
        # of two summands that absorb each other, one stays
        ("glue(omega(pgl{2*one}), omega(pgl{one}))", "omega(pgl{2*one})"),
    ],
)
def test_absorb(text, normal_form):
    assert norm(text) == parse_term(normal_form)


def test_absorb_drops_every_absorbed_copy_in_one_step():
    engine = Engine()
    assert apply_rule(parse_term("100000*max(w)"), "R-absorb", engine) == parse_term("max(w)")
    # built flat: the parser nests a counted gluing inside glue(...)
    flat = Glue([Omega(ONE)] * 99999 + [ONE])
    assert apply_rule(flat, "R-absorb", engine) == Omega(ONE)


def test_pgl_wedge_replacement():
    t = parse_term("pgl{wedge({max(w)} | {min(w+1)}), one}")
    n = normalize(t, Engine())
    # the wedge member is replaced by its vertical pgl and omega'd diagonal
    assert n == parse_term("pgl{omega(min(w+1)), pgl{max(w)}}")


def test_wedge_reduce_diagonal_and_collapse():
    # dominated diagonal member drops, then the wedge collapses to
    # omega copies once the vertical reduces into the diagonal: (d)
    engine = Engine()
    t = parse_term("wedge({max(w)} | {min(w+1), pgl{max(w)}})")
    assert normalize(t, engine) == parse_term("omega(pgl{max(w)})")
    # the gluing of one omega unwraps by R-flat
    assert apply_rule(t, "R-wedge-reduce", Engine()) == parse_term("1*omega(pgl{max(w)})")
    # vertical family reduces to a domination-maximal antichain, whose
    # single vertical over the empty diagonal is a pointed gluing: (c)
    t2 = parse_term("wedge({one}, {omega(one)} | {})")
    assert normalize(t2, engine) == parse_term("pgl{omega(one)}")
    assert apply_rule(t2, "R-wedge-reduce", Engine()) == parse_term("pgl{omega(one)}")


# (a0) resplits {one, omega(one)} as {omega(one)}, (a) drops that
# vertical below {max(w)}, and (b) drops the diagonal max(w) below it
REDUCIBLE_WEDGE = "wedge({one, omega(one)}, {max(w)} | {max(w), min(w+1)})"


def test_wedge_reduce_runs_every_substep_in_one_application():
    engine = Engine()
    reduced = apply_rule(parse_term(REDUCIBLE_WEDGE), "R-wedge-reduce", engine)
    assert reduced == parse_term("wedge({max(w)} | {min(w+1)})")
    assert apply_rule(reduced, "R-wedge-reduce", engine) is None
    assert normalize(parse_term(REDUCIBLE_WEDGE), engine) is reduced


def test_normalizing_a_wedge_builds_one_wedge():
    t = parse_term(REDUCIBLE_WEDGE)

    def wedges():
        return sum(ident[0] == Wedge._variant for ident in list(term._table))

    # the engine caches every shape it meets, so it keeps them alive
    engine = Engine()
    before = wedges()
    nf = normalize(t, engine)
    assert isinstance(nf, Wedge) and wedges() <= before + 1


@pytest.mark.parametrize(
    "text, normal",
    [
        # R-flat splices the normal gluing pgl{one} and drops empty
        ("glue(glue(one, pgl{one}), empty, omega(one))", "glue(omega(one), pgl{one})"),
        # the member glue(one, omega(one)) normalizes to omega(one),
        # which dominates one
        ("pgl{one, omega(one), glue(one, omega(one))}", "pgl{omega(one)}"),
        # R-omega drops the outer omega of omega(pgl{one}) without
        # building omega(omega(pgl{one}))
        ("omega(omega(glue(pgl{one})))", "omega(pgl{one})"),
    ],
)
def test_normalizing_a_gluing_builds_only_its_normal_form(text, normal):
    t = parse_term(text)
    # the engine caches every shape it meets, so it keeps them alive
    engine = Engine()
    before = set(term._table)
    nf = normalize(t, engine)
    built = {term._table[ident]() for ident in set(term._table) - before}
    assert nf == parse_term(normal) and built <= {nf}


@pytest.mark.parametrize(
    "opening, closing, depth, normal",
    [
        ("pgl{", "}", 900, None),  # already normal
        ("omega(", ")", 900, "omega(one)"),
        ("glue(one, ", ")", 900, "901*one"),
    ],
)
def test_normalize_reads_deep_nesting(opening, closing, depth, normal):
    # a thread starts near the bottom of its stack, as a script's top
    # level does; each constructor's step costs one Python frame per level
    text = opening * depth + "one" + closing * depth
    with ThreadPoolExecutor(max_workers=1) as pool:
        nf = pool.submit(norm, text).result(timeout=60)
    assert nf == parse_term(text if normal is None else normal)


def test_apply_rule_reads_deep_nesting():
    # in a thread, as above: the walk costs one Python frame per level
    depth = 900
    t = parse_term("pgl{" * depth + "min(3)" + "}" * depth)
    with ThreadPoolExecutor(max_workers=1) as pool:
        stepped = pool.submit(apply_rule, t, "R-minmax", Engine()).result(timeout=60)
    assert stepped == parse_term("pgl{" * depth + "pgl{min(2)}" + "}" * depth)


def test_normalize_reads_deeply_nested_wedges():
    # each level reduces to a pointed gluing of the level below
    depth = 400
    t = parse_term("wedge({" * depth + "one" + "} | {one})" * depth)
    nf = normalize(t, Engine())
    assert nf == parse_term("pgl{" * depth + "one" + "}" * depth)


def test_apply_rule_examples():
    engine = Engine()
    assert apply_rule(parse_term("glue(glue(one))"), "R-flat", engine) == parse_term("1*one")
    assert apply_rule(parse_term("omega(omega(one))"), "R-omega", engine) == parse_term(
        "omega(one)"
    )
    assert apply_rule(parse_term("min(3)"), "R-minmax", engine) == parse_term("pgl{min(2)}")
    assert apply_rule(ONE, "R-flat", engine) is None


@pytest.mark.parametrize(
    "text, rule, stepped",
    [
        pytest.param(
            "pgl{glue(glue(one)), min(3)}", "R-flat", "pgl{1*one, min(3)}", id="leftmost-member"
        ),
        pytest.param(
            "glue(one, omega(glue(glue(one))))", "R-flat", "glue(one, omega(1*one))",
            id="omega-body",
        ),
        pytest.param("omega(pgl{min(3)})", "R-minmax", "omega(pgl{pgl{min(2)}})", id="pgl-member"),
        pytest.param(
            "wedge({glue(glue(one))}, {omega(one)} | {})", "R-flat",
            "wedge({omega(one)}, {1*one} | {})", id="wedge-vertical",
        ),
        pytest.param(
            "wedge({omega(omega(one))}, {omega(one)} | {})", "R-omega",
            "wedge({omega(one)} | {})", id="merged-verticals",
        ),
        pytest.param(
            "wedge({omega(one)} | {glue(glue(one)), one})", "R-flat",
            "wedge({omega(one)} | {one, 1*one})", id="wedge-diagonal",
        ),
    ],
)
def test_apply_rule_goes_outermost_leftmost(text, rule, stepped):
    assert apply_rule(parse_term(text), rule, Engine()) == parse_term(stepped)


def test_apply_rule_leaves_no_cycle_holding_the_engine():
    t = parse_term("glue(one, omega(pgl{glue(glue(one)), min(3)}))")
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        engine = Engine()
        steps = [apply_rule(t, name, engine) for name in rule_names()]
        ref = weakref.ref(engine)
        del engine
        freed = ref() is None
    finally:
        if was_enabled:
            gc.enable()
    assert any(s is not None for s in steps) and freed


def test_apply_rule_unknown_name():
    with pytest.raises(ValueError):
        apply_rule(ONE, "R-nonsense", Engine())
    assert "R-flat" in rule_names()


def test_normalize_cap_overflow(monkeypatch):
    # a fresh engine has no cached normal form to answer from
    monkeypatch.setattr(rewrite, "DEFAULT_CAP_FACTOR", 0)
    engine = Engine()
    t = parse_term("glue(pgl{one}, min(1), min(1))")
    with pytest.raises(NormalizationLimitError):
        normalize(t, engine)
    # the failed chain cached none of its shapes: the input, and the
    # gluing its children normalize to, which R-absorb then rewrote
    # before the cap stopped it
    children_normal = parse_term("glue(pgl{one}, one, one)")
    assert t not in engine._nf and children_normal not in engine._nf
    with pytest.raises(NormalizationLimitError):
        normalize(t, engine)


@given(terms())
@settings(max_examples=300, deadline=None)
def test_normalize_idempotent(t):
    engine = Engine()
    n = normalize(t, engine)
    assert normalize(n, engine) == n


@given(terms())
@settings(max_examples=300, deadline=None)
def test_normalize_preserves_cb_type(t):
    assert cb_type(normalize(t, Engine())) == cb_type(t)


@given(terms())
@settings(max_examples=60, deadline=None)
def test_rule_steps_are_equivalences(t):
    engine = Engine()
    for name in rule_names():
        stepped = apply_rule(t, name, engine)
        if stepped is None:
            continue
        assert cb_type(stepped) == cb_type(t)
        assert engine.compare(t, stepped).outcome is Outcome.LE
        assert engine.compare(stepped, t).outcome is Outcome.LE


def _assert_cache_free(ts):
    # every shape a fixpoint passes through maps to its normal form on
    # the engine, so a normal form must not depend on what that engine
    # normalized before
    shared = Engine()
    in_order = [normalize(t, shared) for t in ts]
    backward = Engine()
    in_reverse = [normalize(t, backward) for t in reversed(ts)][::-1]
    fresh = [normalize(t, Engine()) for t in ts]
    assert all(a is b is c for a, b, c in zip(in_order, in_reverse, fresh))
    for shape, nf in shared._nf.items():
        assert normalize(shape, Engine()) is nf


@given(st.lists(terms(), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_normal_forms_do_not_depend_on_the_cache(ts):
    _assert_cache_free(ts)


def test_census_normal_forms_do_not_depend_on_the_cache():
    pool = census_inputs(1, 1500, 6000)["pool_text"][:300]
    _assert_cache_free([parse_term(text) for text in pool])


def test_each_rule_runs_once_per_distinct_term(monkeypatch):
    inputs = census_inputs(1, 1500, 6000)
    pool = [parse_term(text) for text in inputs["pool_text"]]
    runs = []

    def spy(step):
        def run(*args):
            # a step may take the node's normal children, not the node
            # _fix reduces, so read that node from _fix's frame
            runs.append((step, sys._getframe(1).f_locals["t"]))
            return step(*args)

        return run

    steps = {
        rewrite._reduce_glue: (Glue,),
        rewrite._reduce_pgl: (PglSet,),
        rewrite._reduce_wedge: (Wedge,),
        rewrite._reduce_omega: (Omega,),
        rewrite._rule_minmax: (MinFn, MaxFn),
    }
    for step in steps:
        monkeypatch.setattr(rewrite, step.__name__, spy(step))
    engine = Engine()
    for i, j in inputs["pairs"][:1000]:
        engine.compare(pool[i], pool[j])
    repeated = len(runs) - len(set(runs))
    assert runs and repeated == 0
    # each step ran, and only on its own constructors
    assert {step for step, _ in runs} == set(steps)
    assert all(isinstance(t, steps[step]) for step, t in runs)


def test_each_side_set_resplit_is_what_a_fresh_engine_gives(monkeypatch):
    inputs = census_inputs(1, 1500, 6000)
    pool = [parse_term(text) for text in inputs["pool_text"]]
    resplit, answers = rewrite._resplit, {}

    def spy(members, engine):
        parts = resplit(members, engine)
        answers.setdefault(members, set()).add(parts)
        return parts

    monkeypatch.setattr(rewrite, "_resplit", spy)
    engine = Engine()
    for i, j in inputs["pairs"]:
        engine.compare(pool[i], pool[j])
    monkeypatch.undo()
    # the round asks about 2,125 side sets, 540 of them distinct; a
    # repeat is answered from the engine's normal forms, the same way
    assert len(answers) > 500
    for members, parts in answers.items():
        assert parts == {resplit(members, Engine())}


def test_nothing_derived_under_a_blocked_query_is_cached(monkeypatch):
    inputs = census_inputs(1, 1500, 6000)
    pool = [parse_term(text) for text in inputs["pool_text"]]
    engine = Engine()
    # at this bound many queries block, normalizing ones among them
    monkeypatch.setattr(sys.modules["scatcalc.compare"], "MAX_OPEN_QUERIES", 2)
    for i, j in inputs["pairs"][:300]:
        engine.compare(pool[i], pool[j])
    monkeypatch.undo()
    # what the engine cached is what a fresh engine derives unblocked
    assert engine._nf
    for t, nf in engine._nf.items():
        assert normalize(t, Engine()) is nf
    assert engine._local.blocked > 0


@pytest.mark.parametrize(
    "text",
    [
        "glue(one, pgl{one})",
        "omega(max(w))",
        "pgl{one, omega(one)}",
        "wedge({one}, {max(w)} | {min(w+1)})",
    ],
)
def test_map_children_returns_an_unchanged_node(text, monkeypatch):
    t = parse_term(text)
    assert isinstance(t, (Glue, Omega, PglSet, Wedge))
    built = []
    intern = term._intern
    monkeypatch.setattr(term, "_intern", lambda *args: built.append(args) or intern(*args))
    # a rule asked at every node that applies at none
    assert rewrite._step([], lambda node: None, (term.Term,), t) is t
    # nor is the node sorted, checked and looked up again
    assert built == []
