import contextlib
import io
import json
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_hasse_dot_is_stable(capsys):
    code, first, _ = run(capsys, "hasse", "w+1", "--dot")
    assert code == 0
    code, second, _ = run(capsys, "hasse", "w+1", "--dot")
    assert first == second
    assert first.startswith("digraph hasse {")
    assert "->" in first


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


def test_feasibility_exit(capsys):
    code, _, err = run(capsys, "generators", "3")
    assert code == 65
    assert "bound" in err


@pytest.mark.parametrize("text", ["3000000*one", "1000*1000*one", "glue(50000*one, 50001*one)"])
def test_huge_gluings_are_refused_at_once(capsys, text):
    start = time.perf_counter()
    code, out, err = run(capsys, "normalize", text)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (65, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_depth_flag(capsys):
    code, out, _ = run(capsys, "--depth", "2", "compare", "one", "omega(one)")
    assert code in (0, 2)


@pytest.mark.parametrize("depth", ["-5", "0"])
def test_non_positive_depth_is_rejected(capsys, depth):
    code, out, err = run(capsys, "--depth", depth, "compare", "one", "one")
    assert (code, out) == (64, "")
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
