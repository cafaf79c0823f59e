"""Tests of the benchmark's own checks and generators.

    python3 -m pytest bench

Each check is fed a right answer, which must pass, and a wrong one (a
flipped verdict, a wrong class count, a traceback), which must fail, so
that no check passes vacuously.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from pathlib import Path

import checks
import gen
import run

ONE_FN = (2, 2, (0, 0))  # image size 1
TWO_FN = (2, 2, (0, 1))  # image size 2


def test_finite_pairs():
    assert checks.finite_pairs([(ONE_FN, TWO_FN, "LE", True), (TWO_FN, ONE_FN, "NOT_LE", False)]) == []
    assert checks.finite_pairs([(ONE_FN, TWO_FN, "NOT_LE", True)])
    assert checks.finite_pairs([(TWO_FN, ONE_FN, "LE", False)])
    assert checks.finite_pairs([(ONE_FN, TWO_FN, "UNKNOWN", True)])
    assert checks.finite_pairs([(ONE_FN, TWO_FN, "LE", False)])


def test_compact_pairs():
    small, big = (3, (0, 0, 1)), (1, (0, 1, 0))  # 3*min(2) vs min(w+1)
    assert checks.compact_pairs([(small, big, "LE"), (big, small, "NOT_LE")]) == []
    assert checks.compact_pairs([(small, big, "NOT_LE")])
    assert checks.compact_pairs([(big, small, "LE")])
    assert checks.compact_pairs([((2, (0, 0, 1)), (1, (0, 0, 1)), "LE")])  # degree decides


def test_reflexive():
    assert checks.reflexive([("one", "LE")], "pool") == []
    assert checks.reflexive([("one", "UNKNOWN")], "pool")
    assert checks.reflexive([("one", "NOT_LE")], "pool")


def test_cb_order():
    pool = [("one",), ("pgl", [("one",)]), ("max", (0, 1, 0))]
    assert checks.cb_order(pool, [(0, 1), (1, 2), (0, 0)], ["LE", "LE", "LE"]) == []
    assert checks.cb_order(pool, [(1, 0)], ["NOT_LE"]) == []
    assert checks.cb_order(pool, [(1, 0)], ["LE"])
    assert checks.cb_order(pool, [(2, 1)], ["LE"])


def test_no_triangle():
    assert checks.no_triangle([("a", "b", "c", "LE", "LE", "LE")]) == []
    assert checks.no_triangle([("a", "b", "c", "LE", "LE", "UNKNOWN")]) == []
    assert checks.no_triangle([("a", "b", "c", "LE", "LE", "NOT_LE")])


def test_same_verdicts():
    assert checks.same_verdicts(["LE", "NOT_LE"], ["LE", "NOT_LE"], "x") == []
    assert checks.same_verdicts(["LE", "NOT_LE"], ["LE", "LE"], "x")
    assert checks.same_verdicts(["LE"], ["LE", "LE"], "x")


def test_class_count():
    assert checks.class_count("w+1", 6, 0, 6) == []
    assert checks.class_count("w+1", 5, 0, 6)
    assert checks.class_count("w+1", 7, 0, 6)
    assert checks.class_count("w+1", 6, 1, 6)


def test_covering():
    assert checks.covering("w", checks.COVERING) == []
    assert checks.covering("w", checks.COVERING - {("wedge", "max+1")})
    assert checks.covering("w", checks.COVERING | {("max", "max+1")})
    flipped = {(b, a) if (a, b) == ("max", "min") else (a, b) for a, b in checks.COVERING}
    assert checks.covering("w", flipped)


def test_table_triangles():
    table = {(0, 1): "LE", (1, 2): "LE", (0, 2): "LE", (1, 0): "NOT_LE", (2, 1): "NOT_LE", (2, 0): "NOT_LE"}
    verdict = lambda a, b: "LE" if a == b else table[a, b]  # noqa: E731
    assert checks.table_triangles([0, 1, 2], verdict) == []
    table[0, 2] = "NOT_LE"
    assert checks.table_triangles([0, 1, 2], verdict)


def test_six_text_names_the_paper_generators():
    assert checks.six_text((0, 1, 0)) == [
        "max(w)", "min(w+1)", "pgl{max(w)}", "omega(min(w+1))", "wedge({max(w)} | {min(w+1)})", "max(w+1)",
    ]


def test_cli_answer_and_traceback_guard():
    argv = ["type", "pgl{max(w)}"]
    assert checks.cli_answer(argv, 0, "(w+1, 1)\n", "") == []
    assert checks.cli_answer(argv, 0, "(w+1, 1)\n", "Traceback (most recent call last):\n  ...")
    assert checks.cli_answer(argv, 1, "(w+1, 1)\n", "")
    assert checks.cli_answer(argv, 0, "(w+2, 1)\n", "")
    cmp = ["compare", "pgl{max(w)}", "omega(min(w+1))"]
    assert checks.cli_answer(cmp, 1, "NOT_LE\n", "") == []
    assert checks.cli_answer(cmp, 0, "LE\n", "")
    js = ["compare", "one", "2*one", "--json"]
    assert checks.cli_answer(js, 0, '{"schema": 1, "outcome": "LE", "trace": []}\n', "") == []
    assert checks.cli_answer(js, 0, '{"schema": 1, "outcome": "NOT_LE", "trace": []}\n', "")
    assert checks.cli_answer(["generators", "2", "--centered", "--classes"], 0, "a\nb\n", "")


def test_known_fault_mended():
    mended = gen.min_recurrence_text(400) + "\n"
    assert not checks.known_fault_mended(1, "", "Traceback (most recent call last):\nRecursionError: x\n")
    assert checks.known_fault_mended(0, mended, "")
    assert not checks.known_fault_mended(0, "pgl{one}\n", "")
    assert checks.known_fault_mended(65, "", "error: term nested too deep\n")
    assert not checks.known_fault_mended(65, "", "error: one\nerror: two\n")
    assert not checks.known_fault_mended(1, "", "error: term nested too deep\n")


def test_min_recurrence_text():
    assert gen.min_recurrence_text(1) == "one"
    assert gen.min_recurrence_text(3) == "pgl{pgl{one}}"


def test_ordinal_text_and_cb_types():
    assert gen.ord_text((0, 0, 0)) == "0"
    assert gen.ord_text((1, 2, 3)) == "w^2+w*2+3"
    assert gen.ord_text((2, 0, 0)) == "w^2*2"
    # the README's `scatcalc type "pgl{max(w)}"` answers (w+1, 1)
    assert gen.cb_type(("pgl", [("max", (0, 1, 0))])) == ((0, 1, 1), 1)
    assert gen.cb_type(("glue", [("one",), ("one",)])) == ((0, 0, 1), 2)
    assert gen.cb_type(("omega", ("one",))) == ((0, 0, 1), gen.INF)
    assert gen.cb_type(("max", (0, 1, 0))) == ((0, 1, 0), 0)
    wedge = ("wedge", [[("max", (0, 1, 0))]], [("min", (0, 1, 1))])
    assert gen.cb_type(wedge) == ((0, 1, 1), gen.INF)


def test_canon_follows_term_equality():
    a, b = ("one",), ("min", (0, 0, 2))
    assert gen.canon(("glue", [a, b])) == gen.canon(("glue", [b, a]))
    assert gen.canon(("glue", [a, a])) != gen.canon(("glue", [a]))
    assert gen.canon(("pgl", [a, a])) == gen.canon(("pgl", [a]))


def test_inputs_depend_on_the_seed_only():
    assert gen.census_inputs(7, 50, 100) == gen.census_inputs(7, 50, 100)
    assert gen.census_inputs(7, 50, 100)["pool_text"] != gen.census_inputs(8, 50, 100)["pool_text"]


def test_percentile_and_tail_rule():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.has_tail(100, 90)
    assert not run.has_tail(99, 90)
    few = [{"op_ns": [1, 5, 9]}, {"op_ns": [3, 5, 7]}, {"op_ns": [2, 50, 8]}]
    assert run.per_op_medians(few) == [2, 5, 8]
    # too few operations for a tail: every call of every round is the sample
    assert run.latencies(few, 90) == sorted([1, 5, 9, 3, 5, 7, 2, 50, 8])
    many = [{"op_ns": list(range(40))}, {"op_ns": [1000] * 40}, {"op_ns": list(range(1, 41))}]
    assert run.latencies(many, 50) == list(range(1, 41))


def test_readme_examples_pass_in_process():
    """The checks accept what the program answers today."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    sys.path.insert(0, src)
    try:
        from scatcalc.cli import main

        for _, argv in checks.README_CALLS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv))
            assert checks.cli_answer(argv, code, out.getvalue(), err.getvalue()) == []
    finally:
        sys.path.remove(src)


def test_random_trees_parse_to_distinct_terms_exactly_when_canon_differs():
    src = str(Path(__file__).resolve().parent.parent / "src")
    sys.path.insert(0, src)
    try:
        from scatcalc.term import parse_term

        rng = random.Random(3)
        trees = [gen.random_tree(rng, 4) for _ in range(300)]
        by_canon = {}
        for t in trees:
            by_canon.setdefault(gen.canon(t), set()).add(parse_term(gen.text(t)))
        assert all(len(terms) == 1 for terms in by_canon.values())
        assert len({next(iter(v)) for v in by_canon.values()}) == len(by_canon)
    finally:
        sys.path.remove(src)
