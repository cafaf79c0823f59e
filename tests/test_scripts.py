"""The experiment scripts run end to end and report their documented
outcomes."""

import subprocess
import sys
from pathlib import Path

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
