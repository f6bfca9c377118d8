"""Scaling of measured times to a reference machine speed.

On a shared host the speed of a process drifts by 10-40 % between seconds
and between runs.  ``loop()`` times a fixed piece of interpreter work that
uses nothing from the package, so no change to the package can move it;
``scaled()`` turns a measured time into the time it would take at the speed
where that loop takes ``REFERENCE_S``, using the loops timed just before and
just after the measurement.
"""

from __future__ import annotations

from time import perf_counter

ITERATIONS = 4000
# Median time of one loop on a 2-vCPU x86-64 Linux host under CPython 3.11.7.
REFERENCE_S = 0.0015


def loop() -> float:
    """Seconds taken by the fixed calibration work."""
    start = perf_counter()
    table, acc = {}, 0
    for i in range(ITERATIONS):
        key = (i, i * 7 % 13)
        table[key[1]] = table.get(key[1], 0) + i
        acc += key[0] * key[1]
    return perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, given the loops timed around it."""
    return seconds * 2 * REFERENCE_S / (before + after)
