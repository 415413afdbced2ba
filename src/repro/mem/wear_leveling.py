"""Inter-line wear leveling (§I, [11]).

ReRAM cells tolerate ~5e6 over-RESET writes, so a main memory must
spread write traffic.  Security-Refresh-style inter-line leveling [11]
has the bank periodically re-key a lightweight address permutation,
migrating lines so that no physical line stays hot.  It is modelled as
an XOR permutation whose key is rotated every ``epoch_writes`` writes.

This is a functional model: it tracks write counts and exposes the
current mapping, and its statistical behaviour (uniform wear) is what
the tests verify.  Intra-line row shifting [12] is modelled where it
matters, as the per-round mask rotation of
:class:`~repro.mem.wear_sim.WearSimulator`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["InterLineWearLeveling"]


class InterLineWearLeveling:
    """XOR-permutation inter-line wear leveling over one bank."""

    def __init__(self, lines: int, epoch_writes: int = 100, seed: int = 7) -> None:
        if lines < 2 or lines & (lines - 1):
            raise ValueError(f"line count must be a power of two >= 2, got {lines}")
        if epoch_writes < 1:
            raise ValueError(f"epoch length must be >= 1, got {epoch_writes}")
        self.lines = lines
        self.epoch_writes = epoch_writes
        self._rng = np.random.default_rng(seed)
        self._key = int(self._rng.integers(0, lines))
        self._next_key = int(self._rng.integers(0, lines))
        self._writes = 0

    def physical_line(self, logical_line: int) -> int:
        """Current physical placement of a logical line."""
        if not 0 <= logical_line < self.lines:
            raise ValueError(f"line {logical_line} outside bank of {self.lines}")
        return logical_line ^ self._key

    def record_write(self, logical_line: int) -> int:
        """Account one write; returns the physical line it landed on.

        Advancing the epoch re-keys the permutation, which in hardware
        is the background swap migration of Security Refresh.
        """
        physical = self.physical_line(logical_line)
        self._writes += 1
        if self._writes % self.epoch_writes == 0:
            self._key = self._next_key
            self._next_key = int(self._rng.integers(0, self.lines))
        return physical

    @property
    def writes(self) -> int:
        return self._writes

