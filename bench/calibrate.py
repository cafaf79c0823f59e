"""Scaling measured times to a reference machine speed.

A shared host runs slow for seconds to minutes at a time.  On the
2-core machine the reference figures come from, one 30 s run read 1.5
times slower than the next on the same inputs, in CPU time as much as in
wall time.  So each measurement runs between two calibrations, and its
times are multiplied by ``REFERENCE_NS / calibration``.

A calibration is the median time of a fixed pure-Python integer loop,
which does not touch scatcalc, so a change to the program cannot move
it.  Over eleven 30 s windows of back-to-back rounds on that machine,
the window medians of census-random spread 19 % unscaled and 5 % scaled
by this loop, and those of levels 22 % and 6 %.  Loops of dict lookups,
in or out of cache, alone or combined with this one, did worse on at
least one of the two.  ``REFERENCE_NS`` is the loop's typical time
there, so scaled times read close to that machine's wall-clock times.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_NS = 10_000_000
REPEATS = 5
LOOPS = 100_000


def _loop() -> int:
    start = time.perf_counter_ns()
    acc = 0
    for i in range(LOOPS):
        acc += i * i % 7
    return time.perf_counter_ns() - start


def scaled(measure):
    """Run ``measure()`` between two calibrations; return its result and
    the factor that scales its times to the reference speed."""
    samples = [_loop() for _ in range(REPEATS)]
    result = measure()
    samples += [_loop() for _ in range(REPEATS)]
    return result, REFERENCE_NS / statistics.median(samples)
