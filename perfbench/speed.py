"""Host-speed normalisation of measured times.

The benchmark shares a few cores of a host with other tenants.  Their load
slows every instruction of the benchmark process down, by up to ~1.8x for
tens of seconds at a time, without showing as lost CPU time.  A fixed
reference computation (a *kernel*), which polyfw does not touch, measures
how fast the host runs at the moment: the ratio of an operation's time to
the kernel's time next to it stays steady while both swing together.

Different code slows down differently under the same load, so there are
two kernels, and each workload uses the one that tracks it best: ``python``
(interpreted loops over lists, like the Python shortest-path oracle) and
``blas`` (400x400 matrix-vector products over 1.3 MB, like HiGHS and dense
objectives).

``Meter`` times a region of code.  It runs the kernel when the region
starts and ends and, for a long region, every ``period`` seconds in
between from a ``SIGALRM`` handler (between two Python bytecodes of the
measured code); kernel time is not part of the region's time.  Each
segment of wall time between two kernel runs is divided by the mean of
those two kernel times and multiplied by the kernel's ``REFERENCE_S``;
their sum reads as seconds on a host where the kernel takes
``REFERENCE_S``.
"""

from __future__ import annotations

import signal
import time

import numpy as np

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((400, 400))
_X = _RNG.standard_normal(400)


def python_kernel() -> float:
    """Min-plus dynamic programming over a layered graph, in plain Python."""
    acc = 0.0
    width = 6
    for rep in range(16):
        prev = [float(j) for j in range(width)]
        for layer in range(40):
            prev = [
                min(prev[i] + ((i * 7 + j * 3 + layer + rep) % 11) for i in range(width))
                for j in range(width)
            ]
        acc += prev[0]
    return acc


def blas_kernel() -> float:
    """Power iteration with a dense 400x400 matrix, plus small vector ops."""
    x = _X.copy()
    acc = 0.0
    for _ in range(100):
        y = _A @ x
        acc += float(y @ x)
        x = y / np.linalg.norm(y)
        acc += float((np.maximum(x, 0.0) - np.abs(x).min()).sum())
    return acc


KERNELS = {"python": python_kernel, "blas": blas_kernel}
# Each kernel's typical time on a shared 2.1 GHz Xeon vCPU (Python 3.11,
# numpy 2.4, OpenBLAS pinned to one thread), where it ranged 1.4x between
# quiet and busy minutes.  Constants: they only set the unit.
REFERENCE_S = {"python": 0.006, "blas": 0.004}


def kernel_s(kernel: str) -> float:
    start = time.perf_counter()
    KERNELS[kernel]()
    return time.perf_counter() - start


class Stopwatch:
    """Wall time of one region of code, without kernel runs."""

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._start


class Meter:
    """Wall time and host-normalised time of one region of code."""

    def __init__(self, kernel: str, period: float = 0.25) -> None:
        self.kernel = kernel
        self.period = period
        self.wall_s = 0.0
        self.norm_s = 0.0
        self.kernel_samples: list = []

    def __enter__(self) -> "Meter":
        self.kernel_samples.append(kernel_s(self.kernel))
        self._open = True
        self._start = time.perf_counter()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period)
        return self

    def _cut(self) -> None:
        """Close the current segment with a kernel run."""
        segment = time.perf_counter() - self._start
        before = self.kernel_samples[-1]
        self.kernel_samples.append(kernel_s(self.kernel))
        self.wall_s += segment
        self.norm_s += segment * REFERENCE_S[self.kernel] / (0.5 * (before + self.kernel_samples[-1]))

    def _tick(self, signum, frame) -> None:
        if not self._open:  # raised just before the region closed
            return
        self._cut()
        signal.setitimer(signal.ITIMER_REAL, self.period)
        self._start = time.perf_counter()

    def __exit__(self, *exc) -> None:
        self._open = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._cut()
