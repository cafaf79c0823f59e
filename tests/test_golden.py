"""Stored verdict table: no decided verdict may change.

``data/golden_verdicts.txt`` holds one section per term set below, each
headed ``== <name> (<n> terms)``.  Row i has one character per j != i,
in enumeration order: ``L``, ``N`` or ``U`` for the outcome of
``compare(terms[i], terms[j])`` on a fresh :class:`Engine` per section.
A stored ``U`` may become decided; a stored ``L`` or ``N`` may never
change.
"""

from pathlib import Path

import pytest

from scatcalc.compare import Engine, Outcome
from scatcalc.generators import centered_raw, generator_raw, six_generators
from scatcalc.ordinal import parse_ordinal

GOLDEN = Path(__file__).parent / "data" / "golden_verdicts.txt"

SECTIONS = {
    "generators 2": lambda: generator_raw(parse_ordinal("2")),
    "six w": lambda: six_generators(parse_ordinal("w")),
    "six w*2": lambda: six_generators(parse_ordinal("w*2")),
    "six w^2": lambda: six_generators(parse_ordinal("w^2")),
    "centered 3": lambda: centered_raw(parse_ordinal("3")),
    "centered w+2": lambda: centered_raw(parse_ordinal("w+2")),
}

_CHAR = {Outcome.LE: "L", Outcome.NOT_LE: "N", Outcome.UNKNOWN: "U"}


def verdict_rows(terms) -> list[str]:
    engine = Engine()
    return [
        "".join(_CHAR[engine.compare(f, g).outcome] for j, g in enumerate(terms) if j != i)
        for i, f in enumerate(terms)
    ]


def load() -> dict[str, list[str]]:
    sections: dict[str, list[str]] = {}
    for line in GOLDEN.read_text().splitlines():
        if line.startswith("== "):
            rows = sections[line[3:].rsplit(" (", 1)[0]] = []
        else:
            rows.append(line)
    return sections


def test_golden_file_covers_every_section():
    assert list(load()) == list(SECTIONS)


@pytest.mark.parametrize("name", list(SECTIONS))
def test_no_decided_verdict_changes(name):
    stored = load()[name]
    rows = verdict_rows(SECTIONS[name]())
    assert len(rows) == len(stored), "the term set's size changed"
    flips = [
        (i, k, old, new)
        for i, (old_row, new_row) in enumerate(zip(stored, rows))
        for k, (old, new) in enumerate(zip(old_row, new_row))
        if old != "U" and old != new
    ]
    assert not flips, f"{len(flips)} decided verdicts changed, first (row, column, was, now): {flips[:5]}"
