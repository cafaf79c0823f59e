import contextlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scatcalc
from scatcalc.cli import main, render_dot
from scatcalc.compare import Engine
from scatcalc.term import format_term, parse_term

from conftest import terms


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_type(capsys):
    code, out, _ = run(capsys, "type", "pgl{max(w)}")
    assert code == 0
    assert out.strip() == "(w+1, 1)"
    code, out, _ = run(capsys, "type", "omega(pgl{max(w)})")
    assert out.strip() == "(w+1, w)"


def test_normalize_roundtrips(capsys):
    code, out, _ = run(capsys, "normalize", "glue(one, one, omega(one))")
    assert code == 0
    assert out.strip() == "omega(one)"
    parse_term(out.strip())


def test_compare_exit_codes(capsys):
    code, out, _ = run(capsys, "compare", "max(w)", "min(w+1)")
    assert (code, out.strip()) == (0, "LE")
    code, out, _ = run(capsys, "compare", "pgl{max(w)}", "omega(min(w+1))")
    assert (code, out.strip()) == (1, "NOT_LE")


def test_compare_trace_and_json(capsys):
    code, out, _ = run(capsys, "compare", "max(w)", "min(w+1)", "--trace")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "LE"
    assert len(lines) > 1 and ":" in lines[1]

    code, out, _ = run(capsys, "compare", "one", "2*one", "--json")
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["outcome"] == "LE"
    assert isinstance(payload["trace"], list) and payload["trace"]
    assert set(payload["trace"][0]) == {"rule", "query"}


def test_trace_text_is_pinned(capsys):
    code, out, _ = run(capsys, "compare", "max(w)", "min(w+1)", "--trace")
    assert (code, out.splitlines()) == (0, ["LE", "  A1: max(w) <= min(w+1) [level w]"])
    code, out, _ = run(capsys, "compare", "one", "2*one", "--json")
    assert json.loads(out)["trace"] == [
        {"rule": "L-min", "query": "one <= 2*one [minimum below target rank]"}
    ]
    code, out, _ = run(capsys, "compare", "glue(one,omega(one))", "pgl{one}", "--trace")
    assert (code, out.splitlines()) == (0, ["LE", "  A1: omega(one) <= pgl{one} [level 1]"])
    code, out, _ = run(capsys, "compare", "omega(one)", "one", "--trace")
    assert (code, out.splitlines()) == (
        1, ["NOT_LE", "  N-lex: omega(one) <= one [tp (1, w) > tp (1, 1)]"]
    )
    left, right = "pgl{omega(pgl{omega(one)})}", "pgl{omega(pgl{one})}"
    code, out, _ = run(capsys, "compare", left, right, "--trace")
    assert (code, out.splitlines()) == (2, ["UNKNOWN", f"  blocked:rules: {left} <= {right}"])


def test_generators_raw(capsys):
    code, out, _ = run(capsys, "generators", "1", "--raw")
    assert code == 0
    assert out.strip().splitlines() == ["one", "omega(one)"]
    for line in out.strip().splitlines():
        parse_term(line)


def test_generators_classes(capsys):
    code, out, _ = run(capsys, "generators", "2", "--centered", "--classes")
    assert code == 0
    assert len(out.strip().splitlines()) == 3


def test_generators_raw_and_classes_exclude_each_other(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generators", "1", "--raw", "--classes"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "not allowed with argument" in out.err


def test_successive_calls_give_the_same_output(capsys):
    calls = [
        ["generators", "1", "--raw", "--classes"],
        ["compare", "pgl{one}", "omega(one)", "--trace"],
        ["generators", "2", "--centered", "--classes"],
        ["compare", "--json", "one", "one"],
        ["hasse", "w+1", "--dot"],
        ["type", "idq"],
        ["generators", "1", "--raw", "--classes"],
        ["normalize", "glue(one, omega(one))"],
        ["compare", "one"],
    ]
    passes = []
    for _ in range(2):
        seen = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            out = capsys.readouterr()
            seen.append((code, out.out, out.err))
        passes.append(seen)
    assert passes[0] == passes[1]
    assert passes[0][0][0] == 2 and "not allowed with argument" in passes[0][0][2]
    assert passes[0][-1][0] == 2 and "required: right" in passes[0][-1][2]


def test_the_parser_is_built_once_per_process():
    done = run_fresh(textwrap.dedent("""
        import argparse, contextlib, io

        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        argparse.ArgumentParser.__init__ = counting_init
        from scatcalc.cli import build_parser, main

        counts = []
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in (["type", "one"], ["generators", "1", "--raw", "--classes"], ["normalize", "one"]):
                try:
                    main(argv)
                except SystemExit:
                    pass
                counts.append(len(built))
        assert build_parser() is build_parser()
        print(counts)
    """))
    assert done.returncode == 0, done.stderr
    # the parser and its six subparsers, all built by the first call
    assert done.stdout == "[7, 7, 7]\n"


def test_hasse_dot_is_stable(capsys):
    code, first, _ = run(capsys, "hasse", "w+1", "--dot")
    assert code == 0
    code, second, _ = run(capsys, "hasse", "w+1", "--dot")
    assert first == second
    assert first.startswith("digraph hasse {")
    assert "->" in first


def test_hasse_lists_the_covering_edges(capsys):
    code, out, _ = run(capsys, "hasse", "w+1")
    assert code == 0
    assert out.splitlines() == [
        "min(w+1) -> omega(min(w+1))",
        "min(w+1) -> pgl{max(w)}",
        "omega(min(w+1)) -> wedge({max(w)} | {min(w+1)})",
        "pgl{max(w)} -> wedge({max(w)} | {min(w+1)})",
        "wedge({max(w)} | {min(w+1)}) -> omega(pgl{max(w)})",
    ]


def test_oracle(capsys):
    code, out, _ = run(capsys, "oracle", "3 2 0 1 0", "5 3 0 1 2 0 1")
    assert (code, out.strip()) == (0, "YES")
    code, out, _ = run(capsys, "oracle", "3 3 0 1 2", "4 2 0 1 0 1")
    assert (code, out.strip()) == (1, "NO")


def test_parse_error_exit(capsys):
    code, _, err = run(capsys, "type", "bogus(")
    assert code == 64
    assert "error" in err
    code, _, err = run(capsys, "compare", "one", "min(w)")
    assert code == 64


@pytest.mark.parametrize(
    "argv, message",
    [
        (["type", "²*one"], "unknown term '²' (at position 0)"),
        (["normalize", "min(w+ )"], "expected an ordinal atom (at position 6)"),
        (["generators", "w+ "], "expected an ordinal atom (at position 3)"),
        (["compare", "one", "pgl{max(w^x)}"], "expected an integer (at position 10)"),
    ],
)
def test_a_parse_error_prints_one_line_with_its_position(capsys, argv, message):
    assert run(capsys, *argv) == (64, "", f"error: {message}\n")


def test_feasibility_exit(capsys):
    code, _, err = run(capsys, "generators", "3")
    assert code == 65
    assert "bound" in err


@pytest.mark.parametrize(
    "argv, level",
    [
        (["generators", "2000", "--raw"], "2000"),
        (["generators", "500"], "500"),
        (["generators", "5", "--centered"], "5"),
        (["generators", "w+1000", "--centered", "--raw"], "w+1000"),
    ],
)
def test_an_infeasible_centered_set_is_refused_at_its_level(capsys, argv, level):
    # the refusal names the requested level, with no raw count that
    # runs to hundreds of digits, and no deep recursion
    code, out, err = run(capsys, *argv)
    assert (code, out) == (65, "")
    assert err == f"error: centered set at {level} exceeds the raw bound 100000\n"


@pytest.mark.parametrize("text", ["idq", "idbaire"])
def test_type_of_a_sentinel_exits_65(capsys, text):
    # the sentinels parse, so this is no parse error (64): they have no CB-type
    code, out, err = run(capsys, "type", text)
    assert (code, out, err) == (65, "", "error: rank undefined for non-scattered function\n")


@pytest.mark.parametrize("text", ["3000000*one", "1000*1000*one", "glue(50000*one, 50001*one)"])
def test_huge_gluings_are_refused_at_once(capsys, text):
    start = time.perf_counter()
    code, out, err = run(capsys, "normalize", text)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (65, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_render_dot_labels():
    terms = [parse_term("one"), parse_term("omega(one)")]
    dot = render_dot(terms, [(terms[0], terms[1])], Engine())
    assert 'label="one"' in dot and 'label="omega(one)"' in dot


@pytest.mark.parametrize(
    "argv, answer",
    [
        (["normalize", "min(400)"], "pgl{" * 399 + "one" + "}" * 399),
        (["normalize", "omega(" * 1000 + "one" + ")" * 1000], "omega(one)"),
        (["type", "omega(" * 1000 + "one" + ")" * 1000], "(1, w)"),
    ],
    ids=["normalize-min400", "normalize-omega1000", "type-omega1000"],
)
def test_deep_terms_answer_or_exit_65(capsys, argv, answer):
    code, out, err = run(capsys, *argv)
    assert "Traceback" not in err
    if code == 0:
        assert out.strip() == answer
    else:
        assert (code, out, err) == (65, "", "error: term nested too deeply\n")


def test_a_term_nested_too_deeply_exits_65(capsys):
    # min(5000) normalizes to 4,999 nested pointed gluings
    assert run(capsys, "normalize", "min(5000)") == (65, "", "error: term nested too deeply\n")


def test_a_verdict_whose_trace_is_nested_too_deeply(capsys):
    # L-gst settles the pair from the types without normalizing; the
    # trace prints normal forms, and min(5000) cannot be normalized
    assert run(capsys, "compare", "min(5000)", "max(w)") == (0, "LE\n", "")
    deep = (65, "", "error: term nested too deeply\n")
    assert run(capsys, "compare", "min(5000)", "max(w)", "--trace") == deep
    assert run(capsys, "compare", "min(5000)", "max(w)", "--json") == deep


def test_type_answers_on_900_nested_pointed_gluings(capsys):
    # the parser takes one frame per nesting level
    code, out, err = run(capsys, "type", "pgl{" * 900 + "one" + "}" * 900)
    assert (code, out, err) == (0, "(901, 1)\n", "")


def test_trace_is_read_before_the_verdict_is_printed(capsys):
    # decided by type without normalizing min(400); the trace needs its normal form
    code, out, _ = run(capsys, "compare", "min(400)", "one")
    assert (code, out) == (1, "NOT_LE\n")
    code, out, err = run(capsys, "compare", "min(400)", "one", "--trace")
    assert "Traceback" not in err
    if code == 1:
        assert out.startswith("NOT_LE\n  N-lex: ")
    else:
        assert (code, out, err) == (65, "", "error: term nested too deeply\n")


_WORDS = ["one", "empty", "omega", "pgl", "glue", "wedge", "min", "max", "idq", "w"]
_GARBAGE = st.lists(
    st.sampled_from(_WORDS + list("(){},|*^+ 0123456789")), max_size=12
).map("".join)


# one digit per number: a k-fold gluing builds k summands
_TERM_TEXT = st.one_of(terms().map(format_term), _GARBAGE).map(
    lambda s: re.sub(r"\d+", lambda m: m.group()[0], s)
)


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, err.getvalue()


@given(
    st.one_of(
        st.tuples(st.sampled_from(["type", "normalize"]), _TERM_TEXT),
        st.tuples(st.just("compare"), _TERM_TEXT, _TERM_TEXT),
    )
)
@settings(max_examples=300, deadline=None)
def test_cli_never_crashes(argv):
    code, err = _run_quietly(list(argv))
    assert code in (0, 1, 2, 64, 65)
    assert "Traceback" not in err


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_fresh(code: str, *argv: str, timeout: float = 60) -> subprocess.CompletedProcess:
    """``code`` in a new interpreter that imports scatcalc from this tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=env, capture_output=True, text=True, timeout=timeout,
    )


def test_each_command_imports_only_the_layers_it_runs():
    done = run_fresh(textwrap.dedent("""
        import contextlib, io, sys

        def loaded():
            return sorted(m.split(".")[-1] for m in sys.modules if m.startswith("scatcalc."))

        import scatcalc.cli
        print(sorted(m for m in ("dataclasses", "inspect", "json", "hashlib") if m in sys.modules))
        seen = [loaded()]
        with contextlib.redirect_stdout(io.StringIO()):
            assert scatcalc.cli.main(["type", "pgl{max(w)}"]) == 0
            seen.append(loaded())
            assert scatcalc.cli.main(["oracle", "3 2 0 1 0", "2 2 0 1"]) == 0
            seen.append(loaded())
        print(*seen, sep="\\n")
    """))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "[]",
        "['cli', 'ordinal', 'term']",
        "['cli', 'ordinal', 'rank', 'term']",
        "['cli', 'oracle', 'ordinal', 'rank', 'term']",
    ]


@pytest.mark.parametrize(
    "text, answer",
    [
        ("pgl{" * 495 + "one" + "}" * 495, "(496, 1)"),
        ("omega(" * 980 + "one" + ")" * 980, "(1, w)"),
        ("glue(one, " * 490 + "one" + ")" * 490, "(1, 491)"),
        ("wedge({one} | {" * 320 + "one" + "})" * 320, "(2, w)"),
    ],
    ids=["pgl495", "omega980", "glue490", "wedge320"],
)
def test_type_answers_on_deep_terms(text, answer):
    # a fresh process: in this one, interned subterms may carry their types
    done = run_fresh("import sys; from scatcalc.cli import main; sys.exit(main())", "type", text)
    assert (done.returncode, done.stdout, done.stderr) == (0, answer + "\n", "")


@pytest.mark.parametrize(
    "n, code, answer",
    [(64, 0, "LE"), (65, 2, "UNKNOWN"), (200, 2, "UNKNOWN"), (900, 2, "UNKNOWN")],
)
def test_pointed_gluing_towers_get_an_answer(n, code, answer):
    # L-pgl-mono holds one query open per level, so past MAX_OPEN_QUERIES
    # the tower is UNKNOWN; it must not derive the blocked queries below
    # each level again (a subprocess, since a hung thread cannot be stopped)
    f = "pgl{" * n + "one" + "}" * n
    g = "pgl{" * n + "omega(one)" + "}" * n
    script = "import sys; from scatcalc.cli import main; sys.exit(main())"
    done = run_fresh(script, "compare", f, g, timeout=10)
    assert (done.returncode, done.stdout, done.stderr) == (code, answer + "\n", "")


# the package's exports by defining submodule; the submodules are exported too
EXPORTS = {
    "ordinal": [
        "Ordinal", "add", "classify", "cmp_ordinal", "double", "format_ordinal",
        "parse_ordinal", "pred_if_successor", "split", "succ", "sup",
    ],
    "term": [
        "EMPTY", "Empty", "Glue", "ID_BAIRE", "ID_Q", "IdBaire", "IdQ", "MaxFn", "MinFn",
        "ONE", "Omega", "One", "PglSet", "Term", "Wedge", "copies", "format_term", "glue",
        "omega", "parse_term", "pgl", "syntactic_cmp", "term_size",
    ],
    "rank": ["CbType", "OMEGA_DEGREE", "cb_type", "is_centered", "is_compact_domain", "is_simple"],
    "rewrite": ["apply_rule", "normalize"],
    "compare": ["Engine", "Outcome", "Verdict", "le_compact"],
    "generators": ["centered_set", "generator_set", "hasse", "six_generators"],
    "oracle": ["FiniteFn", "brute_force_le", "image_formula_le", "term_of"],
}


def test_package_exports_resolve_to_their_modules():
    names = [*EXPORTS, *(name for names in EXPORTS.values() for name in names)]
    assert sorted(scatcalc.__all__) == sorted(names) and len(names) == 61
    assert set(names) <= set(dir(scatcalc))
    for module, exported in EXPORTS.items():
        mod = importlib.import_module(f"scatcalc.{module}")
        assert getattr(scatcalc, module) is mod
        for name in exported:
            assert getattr(scatcalc, name) is getattr(mod, name), name
    with pytest.raises(AttributeError):
        scatcalc.no_such_name
    namespace = {}
    exec("from scatcalc import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)


def test_a_package_export_loads_only_its_module():
    done = run_fresh(
        "import sys; from scatcalc import Engine, FiniteFn; import scatcalc; "
        "print(Engine is sys.modules['scatcalc.compare'].Engine, "
        "'scatcalc.generators' in sys.modules, 'cb_type' in dir(scatcalc))"
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "True False True\n", "")
