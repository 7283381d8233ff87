"""Machine-speed normalisation by a fixed CPU kernel.

On a shared 2-core VM the CPU speed of one process changes by up to 1.8x,
in phases that last from about a second to tens of seconds. That swamps
run-to-run comparisons of in-process work. The kernel (small eigen-solves
and a Python loop, like the library's own work) is timed between requests,
and each request's time is scaled by ``NOMINAL_S / mean(kernel before,
kernel after)``: its time at the kernel's nominal speed.

This works when requests are short next to the phases. Over 10 runs it cut
the spread (IQR/median) of ``wall_s`` from 17% raw to 7% on
``stability-grid``, and from 12% to 4% on ``queries``; perfbench/README.md
has the other metrics. It did not work for ``magnomech figure fig4b
--jobs 2``. A two-process pool request lasts several seconds, and no kernel
run around it or during it predicted its time, on one core or on two. That
is why no end-to-end workload uses the pool.
"""

from __future__ import annotations

import time

import numpy as np

#: Kernel time on a 2-core x86-64 cloud VM (scipy-openblas, Python 3.11)
#: in its usual state; it only fixes the scale of normalised times.
NOMINAL_S = 0.016

#: In-process requests are grouped until they take this long, then the
#: kernel runs again.
EVERY_S = 0.3

_MATRIX = np.arange(36.0).reshape(6, 6) / 7.0 - np.eye(6)


def kernel() -> float:
    """Seconds taken by the fixed kernel."""
    start = time.perf_counter()
    for _ in range(500):
        np.linalg.eigvals(_MATRIX)
    total = 0
    for i in range(40_000):
        total += i
    return time.perf_counter() - start


class Calibration:
    """The kernel timings of one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def measure(self) -> float:
        elapsed = kernel()
        self.samples.append(elapsed)
        return elapsed

    @staticmethod
    def factor(before: float, after: float) -> float:
        return NOMINAL_S / (0.5 * (before + after))
