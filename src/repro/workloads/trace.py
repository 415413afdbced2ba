"""Trace record types for the trace-driven simulator.

A trace is a per-core stream of :class:`MemoryAccess` records at the
**L2-miss level**: each record is one request leaving the core's private
L2 (the level Table IV's RPKI/WPKI are counted at), annotated with the
number of instructions the core retired since its previous record.  The
in-package DRAM L3 cache model filters these further before anything
reaches the ReRAM main memory.

The simulator replays array-form front ends
(:class:`~repro.cpu.frontend.FrontEnd`), not these records; to run a
captured stream, feed it to the L3's ``access_many`` and fill a
``CoreRecords`` per core (see ``docs/extending.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = ["MemoryAccess", "Trace"]


@dataclass(frozen=True)
class MemoryAccess:
    """One L2 miss: ``gap_instructions`` retired since the previous one."""

    gap_instructions: int
    is_write: bool
    address: int  # byte address, line-aligned by the generator

    def __post_init__(self) -> None:
        if self.gap_instructions < 0:
            raise ValueError(
                f"instruction gap must be >= 0, got {self.gap_instructions}"
            )
        if self.address < 0:
            raise ValueError(f"address must be >= 0, got {self.address}")


class Trace:
    """A bounded, replayable sequence of accesses."""

    def __init__(self, accesses: Iterable[MemoryAccess]) -> None:
        self._accesses = list(accesses)

    def __iter__(self) -> Iterator[MemoryAccess]:
        return iter(self._accesses)

    def __len__(self) -> int:
        return len(self._accesses)

    @property
    def instructions(self) -> int:
        return sum(access.gap_instructions for access in self._accesses)

    @property
    def reads(self) -> int:
        return sum(1 for access in self._accesses if not access.is_write)

    @property
    def writes(self) -> int:
        return sum(1 for access in self._accesses if access.is_write)

    def rpki(self) -> float:
        """Read accesses per kilo-instruction."""
        instructions = self.instructions
        return 1000.0 * self.reads / instructions if instructions else 0.0

    def wpki(self) -> float:
        """Write accesses per kilo-instruction."""
        instructions = self.instructions
        return 1000.0 * self.writes / instructions if instructions else 0.0

