"""Host-speed calibration: times scaled to a fixed reference speed.

The benchmark runs on shared hosts whose speed drifts by tens of percent
for tens of seconds at a time, so wall-clock times of the same code differ
more between runs than any bound worth keeping.  After every job, outside
the timed region, the benchmark times a fixed snippet of interpreter work
of the kind the library does (tuples, dict updates, Fraction arithmetic).
A job's wall-clock time multiplied by ``REFERENCE_S`` over the mean
snippet time around it is the job's time at the reference speed: the speed
at which the snippet takes ``REFERENCE_S``.  On a 2-vCPU Xeon VM this cut
the pass-to-pass coefficient of variation of a workload's throughput from
6-13% to 1.6-3%.

The snippet runs with the garbage collector off and leaves nothing behind,
so its time does not depend on how much the library keeps alive.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

# The snippet's time on a quiet 2-vCPU Intel Xeon VM (Python 3.11).  It only
# sets the scale of the reported times; comparisons need it unchanged.
REFERENCE_S = 0.6e-3
WINDOW = 3          # snippet samples taken on each side of a job
WARM_UP = 20
BRACKET = 5         # snippet samples before and after each timed set-up

_STEP = Fraction(3, 7)


def _snippet():
    counts = {}
    acc = Fraction(0)
    for i in range(300):
        key = tuple((i * j) % 11 for j in range(6))
        counts[key] = counts.get(key, 0) + 1
        if i % 10 == 0:
            acc = acc * _STEP + Fraction(1, i + 1)
    return len(counts), acc


def sample() -> float:
    """Seconds one run of the snippet takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _snippet()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def warm_up():
    for _ in range(WARM_UP):
        sample()


def factors(samples: list[float]) -> list[float]:
    """Speed factor of each job: ``REFERENCE_S`` over the mean of the samples
    within ``WINDOW`` of it.  Sample i is the one taken right after job i."""
    n = len(samples)
    return [REFERENCE_S / statistics.fmean(samples[max(0, i - WINDOW):min(n, i + WINDOW + 1)])
            for i in range(n)]


def bracketed(fn):
    """Run ``fn()`` between two bursts of samples; return (result, seconds
    it took, its speed factor)."""
    before = [sample() for _ in range(BRACKET)]
    start = perf_counter()
    result = fn()
    elapsed = perf_counter() - start
    after = [sample() for _ in range(BRACKET)]
    return result, elapsed, REFERENCE_S / statistics.fmean(before + after)
