"""The experiment scripts run end to end and report their documented
outcomes."""

import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from conftest import SCRIPTS, load_script
from golden import load as load_golden


def run_script(name: str, *args: str) -> str:
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_hasse_report_finds_the_six_class_diamond():
    assert "classes: 6, undecided pairs: 0" in run_script("hasse_report.py", "w")


def test_decision_census_decides_every_generator_pair():
    lines = run_script("decision_census.py", "--random-pairs", "200").splitlines()
    generator_lines = [line for line in lines if line.startswith("generators")]
    assert len(generator_lines) == 4
    for line in generator_lines:
        assert "unknown=    0" in line, line


def test_fingerprint_hashes_every_section():
    lines = run_script(
        "fingerprint.py", "--seeds", "1", "--pool", "100", "--pairs", "400",
        "--levels", "six w", "centered w+2", "--golden", "six w", "centered w+2",
    ).splitlines()
    hashes = dict(line.rsplit(": ", 1) for line in lines)
    assert list(hashes) == [
        "census 1 parse", "census 1 outcomes", "census 1 trace-now", "census 1 trace-after",
        "census 1 normal-forms", "census 1 rule-steps", "census 1 cb-types",
        *(
            f"levels {name} {order} {part}"
            for name in ("six w", "centered w+2")
            for order in ("given", "reversed")
            for part in ("classes", "undecided", "hasse")
        ),
        "multiplicity outcomes", "multiplicity traces", "multiplicity normal-forms",
        "golden six w", "golden centered w+2",
    ]
    # the centered set at w+2 has undecided pairs, the six generators none
    empty = hashlib.sha256(b"").hexdigest()
    assert hashes["levels six w given undecided"] == empty
    assert hashes["levels centered w+2 given undecided"] != empty
    # a trace reads the same whenever it is read
    assert hashes["census 1 trace-now"] == hashes["census 1 trace-after"]
    stored = load_golden()["centered w+2"]
    expected = hashlib.sha256("".join(row + "\n" for row in stored).encode()).hexdigest()
    assert hashes["golden centered w+2"] == expected


def test_audit_reports_each_set_without_violations():
    lines = run_script("audit.py", "--seeds", "1", "--forms", "40", "--centered", "3").splitlines()
    levels = ["1", "2", "w+1", "w*2+1", "w^2+1"]
    assert [line.split(":")[0] for line in lines] == ["census 1", "centered 3"] + [
        f"generators {level}" for level in levels
    ]
    assert lines[0].startswith("census 1: 40 forms, ")
    # the distinct normal forms of the generator sets, every pair decided
    assert [line.split(", ")[0].split(": ")[1] for line in lines[2:]] == [
        "2 forms", "7 forms", "5 forms", "5 forms", "5 forms"
    ]
    equivalent = []
    for line in lines:
        assert "; 0 violations, " in line and line.endswith(" equivalent pairs")
        assert " UNKNOWN pairs an LE chain decides, " in line
        equivalent.append(int(line.rsplit(", ", 1)[1].split()[0]))
    for line in lines[2:]:
        assert " 0 UNKNOWN; " in line
    # each distinct form of a level set is a class of its own; census
    # seed 1 has at most 10 equivalent pairs over all its forms
    assert equivalent[0] <= 10 and equivalent[1:] == [0] * 6


def test_workcount_counts_a_cold_round():
    args = ("--seeds", "1", "2", "--pool", "200", "--pairs", "800")
    lines = run_script("workcount.py", *args).splitlines()
    assert [line.split(":")[0] for line in lines] == ["census 1", "census 2"]
    for line in lines:
        fields = line.split(": ", 1)[1].split("  ")
        counts = {name: int(value) for name, value in (f.split(" ") for f in fields)}
        assert list(counts) == [
            "calls", "asked", "decide", "fix", "built", "nf", "memo", "renormalize", "blocked"
        ]
        # the memo holds the pairs and the rules' sub-queries; most
        # pairs are settled by their types, and the memo spares the
        # second round its decisions
        assert 800 < counts["memo"] and 0 < counts["decide"] < 800
        # every question enters through compare, the rules' ones too
        assert 800 <= counts["asked"] and counts["decide"] < counts["asked"]
        assert 0 < counts["fix"] and 0 < counts["nf"]
        # the cache holds the pool's terms, which the round does not
        # build, besides most of the nodes the round builds
        assert 0 < counts["built"] < counts["nf"]
        assert 0 < counts["renormalize"] < counts["calls"]
        # census traffic stays far below the bound on open queries
        assert counts["blocked"] == 0
    # the counts depend on the inputs alone
    assert run_script("workcount.py", *args).splitlines() == lines


def test_ab_summary_on_canned_pairs():
    ab = load_script("ab.py")
    base = [100.0, 110.0, 90.0, 105.0, 95.0]
    change = [120.0, 130.0, 108.0, 100.0, 118.0]
    pairs = [({"ops": b, "t": 1 / b}, {"ops": c, "t": 1 / c}) for b, c in zip(base, change)]
    ops, t = ab.summarize(pairs, {"ops": "higher", "t": "lower"})
    assert (ops.metric, ops.base, ops.change, ops.pairs) == ("ops", 100.0, 118.0, 5)
    # the change lost only the fourth pair
    assert ops.wins == 4 and t.wins == 4
    assert (ops.base_q1, ops.base_q3) == (92.5, 107.5)
    assert ops.median_change == pytest.approx(0.18)
    # per pair: +20 %, +18.2 %, +20 %, -4.8 %, +24.2 %
    assert ops.pair_change == pytest.approx(0.2)
    assert ops.clear and t.clear
    # a lower-is-better metric that rose is not a clear gain
    (worse,) = ab.summarize([(c, b) for b, c in pairs], {"t": "lower"})
    assert worse.wins == 1 and not worse.clear
    assert "ops" in ab.format_rows([ops, t])


def test_ab_summary_splits_the_pairs_by_run_order():
    ab = load_script("ab.py")
    # the tree that runs second reads 10 % faster, whichever it is
    pairs = []
    for i in range(10):
        second_is_change = not ab.change_runs_first(i)
        pairs.append(({"s": 1.0}, {"s": 0.9 if second_is_change else 1.1}))
    (row,) = ab.summarize(pairs, {"s": "lower"})
    assert [ab.change_runs_first(i) for i in range(4)] == [False, True, False, True]
    assert row.change_first == pytest.approx(0.1)
    assert row.base_first == pytest.approx(-0.1)
    assert row.pair_change == pytest.approx(0.0) and row.wins == 5
    header, line = ab.format_rows([row]).splitlines()
    assert "chg first" in header and "base first" in header
    assert "+10.0%" in line and "-10.0%" in line
    # one pair leaves the change-first median undefined
    (single,) = ab.summarize(pairs[:1], {"s": "lower"})
    assert single.base_first == pytest.approx(-0.1) and math.isnan(single.change_first)


def test_ab_parses_seed_lists():
    ab = load_script("ab.py")
    assert ab.parse_seeds("201-204") == [201, 202, 203, 204]
    assert ab.parse_seeds("1,3-4,9") == [1, 3, 4, 9]


def test_ab_runs_both_trees_without_bytecode(tmp_path, monkeypatch):
    ab = load_script("ab.py")
    tree = tmp_path / "tree"
    for part in ("src/pkg", "bench"):
        (tree / part / "__pycache__").mkdir(parents=True)
        (tree / part / "__pycache__" / "mod.cpython-311.pyc").write_bytes(b"stale")
        (tree / part / "mod.py").write_text("X = 1\n")
    monkeypatch.setattr(ab, "ROOT", tree)
    copy = tmp_path / "copy"
    ab.copy_tree(copy)
    copied = sorted(str(p.relative_to(copy)) for p in copy.rglob("*"))
    assert copied == ["bench", "bench/mod.py", "src", "src/pkg", "src/pkg/mod.py"]

    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "")
    monkeypatch.setenv("AB_TEST_PROBE", "kept")
    env = ab.child_env()
    assert env["PYTHONDONTWRITEBYTECODE"] == "1" and env["AB_TEST_PROBE"] == "kept"
    # a run under it leaves the copy without bytecode
    done = subprocess.run(
        [sys.executable, "-c", "import mod; print(mod.X)"],
        cwd=copy / "src" / "pkg", env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.stdout == "1\n"
    assert not list(copy.rglob("__pycache__"))


@pytest.mark.parametrize(
    "body, message",
    [
        ("sys.exit(3)", "ran incorrectly (exit 3)"),
        ("print('partial'); sys.exit(1)", "ran incorrectly (exit 1)"),
        ("pass", "printed no result line (last line: nothing)"),
        ("print('not json')", "printed no result line (last line: 'not json')"),
        ("print('{}')", "printed no result line (last line: '{}')"),
        (
            "print(json.dumps({'correct': False, 'failed': 0, 'metrics': {}}))",
            "ran incorrectly (exit 0)",
        ),
    ],
)
def test_ab_reports_a_bad_run_by_its_exit_code_first(tmp_path, body, message):
    ab = load_script("ab.py")
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(f"import json, sys\n{body}\n")
    with pytest.raises(SystemExit) as exc:
        ab.run_bench(tmp_path, "census-random", 7, 1)
    assert str(exc.value) == f"{tmp_path}: seed 7 {message}"


def test_ab_reads_the_metrics_of_a_good_run(tmp_path):
    ab = load_script("ab.py")
    (tmp_path / "bench").mkdir()
    result = {"correct": True, "failed": 0, "metrics": {"round_s": {"value": 0.5}}}
    (tmp_path / "bench" / "run.py").write_text(f"print('log line')\nprint({json.dumps(result)!r})\n")
    assert ab.run_bench(tmp_path, "census-random", 7, 1) == {"round_s": 0.5}


def test_ab_removes_its_directory_on_sigterm(tmp_path):
    # the tree extraction and the runs sleep, so the signal lands mid-run
    code = textwrap.dedent(f"""
        import importlib.util, sys, time
        spec = importlib.util.spec_from_file_location("ab", {str(SCRIPTS / "ab.py")!r})
        ab = importlib.util.module_from_spec(spec)
        sys.modules["ab"] = ab
        spec.loader.exec_module(ab)
        ab.extract = ab.run_bench = lambda *args: time.sleep(60)
        ab.main(["--seeds", "1"])
    """)
    env = {**os.environ, "TMPDIR": str(tmp_path)}
    proc = subprocess.Popen([sys.executable, "-c", code], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 30
        # "base" is made inside the block whose finally removes the directory
        while not list(tmp_path.glob("scatcalc-ab-*/base")):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 128 + signal.SIGTERM
    finally:
        proc.kill()
        proc.wait()
    assert not list(tmp_path.glob("scatcalc-ab-*"))
