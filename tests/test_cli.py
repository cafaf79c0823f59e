import json

import pytest

from scatcalc.cli import main, render_dot
from scatcalc.term import parse_term


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
    dot = render_dot(terms, [(terms[0], terms[1])])
    assert 'label="one"' in dot and 'label="omega(one)"' in dot
