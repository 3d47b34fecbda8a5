"""Machine-speed sampling, so that timings on a shared machine compare.

On a small shared machine the same call can take 40% longer in one minute
than in the next, and the slowdown hits every computation alike. ``timed``
runs a fixed NumPy kernel that does not touch persched ``EDGE_RUNS`` times
just before and just after a call and, from a SIGALRM handler, every
``PERIOD_S`` seconds during it, between the bytecodes of whatever the main
thread is running. The call's slowness is the mean kernel time divided by
``REFERENCE_S``; wall time divided by slowness is the call's time at the
reference speed. The mean drops the slowest and fastest tenth of the
samples, since a kernel run that the scheduler interrupts can take a
hundred times its usual time. The kernel adds about 4% to a sampled call.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD_S = 0.05
REFERENCE_S = 0.0018
EDGE_RUNS = 5

_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal((25, 25))
_SMALL_SPD = _SMALL @ _SMALL.T + 25.0 * np.eye(25)
_LARGE = _RNG.standard_normal((160, 160))


def kernel_s() -> float:
    """Wall time of the fixed kernel, about equal parts of small NumPy calls
    as in persched's per-step algebra, plain Python, and one dense solve."""
    start = perf_counter()
    for _ in range(18):
        np.linalg.solve(_SMALL_SPD, _SMALL @ _SMALL.T)
        np.linalg.eigvals(_SMALL[:6, :6])
    counts = {}
    for i in range(750):
        counts[i % 17] = counts.get(i % 17, 0) + i * i
    np.linalg.solve(_LARGE, _LARGE)
    return perf_counter() - start


def trimmed_mean(values) -> float:
    ordered = sorted(values)
    cut = len(ordered) // 10
    return statistics.mean(ordered[cut : len(ordered) - cut])


def timed(fn, *args, sample_during: bool = True, **kwargs) -> tuple:
    """Call ``fn``; return (result, wall seconds, slowness).

    Pass ``sample_during=False`` when the call waits on another process:
    the kernel would then run on an idle core, which wakes slowly.
    """
    samples = [kernel_s() for _ in range(EDGE_RUNS)]
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: samples.append(kernel_s()))
    if sample_during:
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    try:
        start = perf_counter()
        result = fn(*args, **kwargs)
        elapsed = perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    samples.extend(kernel_s() for _ in range(EDGE_RUNS))
    return result, elapsed, trimmed_mean(samples) / REFERENCE_S
