"""Host speed, measured beside the workload so timings can be compared.

A shared virtual machine can change speed by up to 1.8x within
minutes (seen on a 2-core Xeon VM), and the process's CPU time slows
down with its wall time: the time is not stolen, the processor is
slower. So the benchmark times a fixed kernel, which is the
benchmark's own code and no part of the program, between requests,
and scales each timing by ``REFERENCE_S / kernel time`` around the
moment it was taken: timings read as they would on a host that runs
the kernel in :data:`REFERENCE_S`.

The kernel mixes, in about equal time, what the program's host side
does: interpreted Python arithmetic, and numpy calls on small vectors.
On that VM, while its speed swung 1.8x, per-structure session
latencies divided by this mix stayed within about 10%; divided by
either half alone, or by a large compiled numpy operation, within
13-32%.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Kernel time that defines the reference host speed.
REFERENCE_S = 1.0e-3

_VECTOR = np.linspace(0.0, 1.0, 256)


def _kernel() -> float:
    total = 0
    for i in range(8000):
        total += (i * 7) % 13
    v = _VECTOR
    for _ in range(160):
        v = np.minimum(np.maximum(v * 0.5 + 0.25, 0.1), 0.9)
    return total + float(v.sum())


def sample() -> float:
    """Seconds one run of the kernel takes now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


class Speedometer:
    """Kernel samples taken at most every ``every`` seconds."""

    def __init__(self, every: float) -> None:
        self.every = every
        self.samples: list[float] = []
        self._last = float("-inf")

    def tick(self) -> None:
        """Take a sample if ``every`` seconds have passed since the last."""
        now = time.perf_counter()
        if now - self._last >= self.every:
            self.samples.append(sample())
            self._last = time.perf_counter()

    def burst(self, count: int) -> None:
        """Take ``count`` samples back to back, after one untimed run."""
        _kernel()
        self.samples.extend(sample() for _ in range(count))

    @property
    def factor(self) -> float:
        """Multiply a timing by this to read it at the reference speed."""
        return REFERENCE_S / statistics.median(self.samples)

    def factor_at(self, index: int, half: int = 2) -> float:
        """:attr:`factor` from the samples around sample ``index`` only."""
        near = self.samples[max(0, index - half):index + half + 1]
        return REFERENCE_S / statistics.median(near)
