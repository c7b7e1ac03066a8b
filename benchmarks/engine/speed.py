"""A fixed reference computation that measures the machine's current speed.

On a shared host the same episodes can take 20-40 % longer from one
second to the next, in wall time and in CPU time alike, because other
tenants contend for the same cores and caches.  Medians over rounds do
not remove that: a whole run can land in a slow minute.  So every timing
the benchmark reports is scaled by the speed of a reference kernel timed
around it:

    reported = measured * REFERENCE_S / reference time around the measurement

``REFERENCE_S`` is the kernel's time on a quiet machine (the host the
README's baselines were measured on), so a reported timing reads as
seconds on that machine at that speed, and a slowdown that hits the
whole host cancels.  The kernel is plain interpreter work (dict lookups
and float arithmetic), independent of the code under test, so a change
to ``repro`` moves the measured times and never the reference.
"""

from __future__ import annotations

import time
from typing import Callable

__all__ = ["REFERENCE_S", "reference_kernel", "reference_seconds", "speed_factor"]

#: Quiet-machine time of :func:`reference_kernel` [s].
REFERENCE_S = 6.0e-3


def reference_kernel() -> float:
    """Deterministic interpreter-bound work taking about ``REFERENCE_S``."""
    table = dict.fromkeys(range(1024), 0.0)
    acc = 0.0
    for i in range(30_000):
        table[i & 1023] = i * 0.5
        acc += table[(i * 7) & 1023] / (1.0 + (i & 15))
    return acc


def reference_seconds(clock: Callable[[], float] = time.perf_counter) -> float:
    """Wall time of one :func:`reference_kernel` call [s]."""
    started = clock()
    reference_kernel()
    return clock() - started


def speed_factor(before: float, after: float) -> float:
    """Scale for a timing bracketed by reference times ``before``/``after``."""
    return REFERENCE_S / (0.5 * (before + after))
