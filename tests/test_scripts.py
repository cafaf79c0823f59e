"""The experiment scripts run end to end and report their documented
outcomes."""

import hashlib
import subprocess
import sys
from pathlib import Path

from test_golden import load as load_golden

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
        "--golden", "six w", "centered w+2",
    ).splitlines()
    hashes = dict(line.rsplit(": ", 1) for line in lines)
    assert list(hashes) == [
        "census 1 outcomes", "census 1 trace-now", "census 1 trace-after",
        "census 1 normal-forms", "golden six w", "golden centered w+2",
    ]
    # a trace reads the same whenever it is read
    assert hashes["census 1 trace-now"] == hashes["census 1 trace-after"]
    stored = load_golden()["centered w+2"]
    expected = hashlib.sha256("".join(row + "\n" for row in stored).encode()).hexdigest()
    assert hashes["golden centered w+2"] == expected
