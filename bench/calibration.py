"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on a shared host whose speed moves by 20-50% in phases
lasting from seconds to minutes: a fixed loop of Python code took 0.20 s in
one stretch and 0.30 s in the next, and the mean over 25-second windows
spread by 0.17 (quartile distance over median) in eight minutes. Such
phases outlast a run, so no number of repetitions within a run removes
them.

So every timed stretch of work is bracketed by a short fixed kernel that
does not touch fairalloc: a Python loop of scalar scipy.special and numpy
calls, the kind of work fairalloc's water-fill and certificates do. A
stretch that took ``t`` seconds between two kernel timings ``k0`` and
``k1`` is reported as ``t * REFERENCE_S / ((k0 + k1) / 2)``: seconds at the
speed at which the kernel takes REFERENCE_S. The kernel is independent of
the program, so a change to fairalloc moves these times as much as it moves
wall time; only the machine's speed is divided out. The kernel reacts to
the slow phases more strongly than the solvers do, so some drift remains:
over minutes of repeated tasks, 102-task windows of pof_narrow spread by
0.25 in wall time and 0.03 scaled, but single 1-4 s solves of 20-30 groups
still spread by 0.10-0.27 scaled (see README.md).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from scipy.special import pdtr

KERNEL_STEPS = 2000
# The kernel's time on the reference machine (a 2-core Xeon VM, Python 3.11,
# numpy 2.4, scipy 1.17) in its faster phases. It fixes the unit only.
REFERENCE_S = 0.003
# Tasks shorter than this share one pair of kernel timings.
SEGMENT_S = 0.25


def _kernel() -> float:
    total = 0.0
    for i in range(KERNEL_STEPS):
        total += pdtr(i % 50, 20.0) + float(np.sqrt(np.float64(i)))
    return total


def kernel_seconds() -> float:
    """The kernel's time now: the best of two runs, so an interrupt does not count."""
    best = float("inf")
    for _ in range(2):
        start = perf_counter()
        _kernel()
        best = min(best, perf_counter() - start)
    return best


def scale(before: float, after: float) -> float:
    """Factor turning seconds measured between two kernel timings into reference seconds."""
    return REFERENCE_S / (0.5 * (before + after))
