"""Host-speed reference: a fixed kernel timed in the gaps of a run.

On a 2-vCPU x86-64 VM that shares its host with other tenants, a
fixed pure-Python loop varies by 15-25% between two-second windows and
drifts over minutes, which alone spreads run-level timings by 10-29%
across ten runs of unchanged code.  The sim and array workloads
therefore time this kernel between their operations and report every
end-to-end time in *reference seconds*: host seconds divided by the
run's slowdown, the median kernel time over :data:`NOMINAL_S`.  The
kernel mixes the kinds of work the program does (interpreted loops and
dict updates, NumPy element-wise passes, a SciPy sparse solve), so a
slow phase of the host stretches both alike.  The raw host seconds and
the slowdown are printed beside each metric.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .stats import median

#: The kernel's time on a calm 2-vCPU x86-64 VM (CPython 3.11).
NOMINAL_S = 0.045


class HostSpeed:
    """Kernel timings collected over one run."""

    def __init__(self) -> None:
        n = 2000
        self._matrix = sp.diags(
            [np.ones(n - 1), np.full(n, 4.0), np.ones(n - 1)], [-1, 0, 1],
            format="csc",
        )
        self._rhs = np.ones(n)
        self._vector = np.random.default_rng(0).random(200_000)
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in timed kernel runs
        self._kernel()  # the first call pays one-time import and cache costs

    def _kernel(self) -> None:
        total = 0
        for i in range(240_000):
            total += i * i
        counts: dict[int, int] = {}
        for i in range(50_000):
            counts[i % 977] = counts.get(i % 977, 0) + i
        for _ in range(8):
            spla.spsolve(self._matrix, self._rhs)
        x = self._vector
        for _ in range(25):
            x = np.sqrt(x * x + 1.0)

    def sample(self, count: int = 1) -> float:
        """Time the kernel ``count`` times; returns the seconds spent."""
        spent = 0.0
        for _ in range(count):
            start = time.perf_counter()
            self._kernel()
            elapsed = time.perf_counter() - start
            self.samples.append(elapsed)
            spent += elapsed
        self.spent += spent
        return spent

    @property
    def slowdown(self) -> float:
        """Median kernel time over :data:`NOMINAL_S` (1.0 = nominal host)."""
        return median(self.samples) / NOMINAL_S


def scale(raw: dict, slowdown: float) -> dict:
    """Host-second metrics in reference seconds (rates per reference second)."""
    return {
        name: value * slowdown if name.endswith("_per_s") else value / slowdown
        for name, value in raw.items()
    }


def host_line(host: HostSpeed, raw: dict) -> str:
    values = ", ".join(f"{name} {value:.6g}" for name, value in raw.items())
    timings = " ".join(f"{sample:.4f}" for sample in host.samples)
    return (
        f"host slowdown {host.slowdown:.4f} (median of reference-kernel "
        f"timings [{timings}] s / {NOMINAL_S} s); in host seconds: {values}"
    )
