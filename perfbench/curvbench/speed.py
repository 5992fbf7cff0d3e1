"""The host's speed, sampled during a run with a fixed reference kernel.

A shared host runs the same code at speeds up to 1.6x apart, in phases of
seconds to minutes, and CPU time swings with wall time (clock and sibling
contention, not scheduling).  The kernel below does the two kinds of work
curvcert does: brackets of small matrices in a Python loop, as the catalog
and the symmetric-pair check do, and the contraction of a pair tensor with a
vector followed by a symmetric eigensolve, as the alternating search does.
It uses no curvcert code, so a change to curvcert cannot move it.

The harness calls `Meter.maybe_sample()` between jobs, so the kernel runs
about every SAMPLE_EVERY_S seconds, and `Meter.sample()` before each set-up
spawn.  A time measured while the kernel took c seconds is reported at the
reference speed as time * REF_KERNEL_S / c, with c the median of the samples
taken within WINDOW_S seconds of the measured interval.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REF_KERNEL_S = 0.010  # the kernel's time at the reference speed
SAMPLE_EVERY_S = 0.25
WINDOW_S = 2.0

_RNG = np.random.default_rng(12345)
_MATS = [_RNG.standard_normal((8, 8)) for _ in range(24)]
_BIG = _RNG.standard_normal((40, 40))
_TENSORS = [_RNG.standard_normal((10, 10, 15)) for _ in range(2)]
_W0 = _RNG.standard_normal(10)


def kernel() -> float:
    acc = 0.0
    for a in _MATS:
        for b in _MATS:
            c = a @ b - b @ a
            acc += float(np.einsum("ij,ij->", c, c))
    acc += float(np.linalg.svd(_BIG, compute_uv=False)[-1])
    w = _W0
    for _ in range(60):
        q = np.zeros((10, 10))
        for t in _TENSORS:
            a = np.einsum("ikd,k->id", t, w)
            q += a @ a.T
        z = np.linalg.eigh(q)[1][:, 0]
        acc += float(np.sum(np.einsum("ikd,i,k->d", _TENSORS[0], z, w) ** 2))
    return acc


class Meter:
    """Kernel times with the perf_counter times they were taken at."""

    def __init__(self):
        self.at: list[float] = []
        self.kernel_s: list[float] = []
        kernel()  # warm-up

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.at.append(0.5 * (start + end))
        self.kernel_s.append(end - start)

    def maybe_sample(self) -> None:
        """Samples when SAMPLE_EVERY_S have passed since the last sample."""
        if not self.at or time.perf_counter() - self.at[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """REF_KERNEL_S over the median kernel time within WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        return REF_KERNEL_S / statistics.median(self.kernel_s[lo:hi] or self.kernel_s)
