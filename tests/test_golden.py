"""The stored verdict table of ``golden.py``: no decided verdict may
change."""

import pytest

from golden import SECTIONS, load, verdict_rows


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
