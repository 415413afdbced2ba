"""Per-core cache hierarchy (Table III).

Each core owns a private L1, L2 and an in-package DRAM L3 slice (32 MB,
16-way) that buffers write-intensive lines in front of the ReRAM main
memory [32].  ``access_full`` walks all three levels for raw CPU-level
address streams (the examples use this); ``access_l3`` is one access of
an L2-miss-level trace (Table IV's RPKI/WPKI).  The benchmark path,
:meth:`repro.cpu.frontend.FrontEnd.record`, passes whole windows of
such a trace to the L3's ``access_many`` instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import CpuParams
from .cache import SetAssociativeCache

__all__ = ["HierarchyOutcome", "CoreCacheHierarchy"]


@dataclass(frozen=True)
class HierarchyOutcome:
    """What one access did to the memory system."""

    level: str  # "L1" | "L2" | "L3" | "MEM"
    memory_read: bool  # an L3 miss fetches the line from main memory
    writeback_address: int | None  # dirty L3 victim -> main-memory write


_L1_HIT = HierarchyOutcome("L1", memory_read=False, writeback_address=None)
_L2_HIT = HierarchyOutcome("L2", memory_read=False, writeback_address=None)
_L3_HIT = HierarchyOutcome("L3", memory_read=False, writeback_address=None)
_CLEAN_READ_MISS = HierarchyOutcome("MEM", memory_read=True, writeback_address=None)
_CLEAN_WRITE_MISS = HierarchyOutcome(
    "MEM", memory_read=False, writeback_address=None
)


class CoreCacheHierarchy:
    """Private L1 + L2 + DRAM-L3 stack of one core."""

    def __init__(self, params: CpuParams) -> None:
        self.params = params
        self.l1 = SetAssociativeCache(params.l1_bytes, params.l1_ways, params.line_bytes)
        self.l2 = SetAssociativeCache(params.l2_bytes, params.l2_ways, params.line_bytes)
        self.l3 = SetAssociativeCache(
            params.l3_bytes_per_core, params.l3_ways, params.line_bytes
        )

    def access_full(self, address: int, is_write: bool) -> HierarchyOutcome:
        """CPU-level access walking L1 -> L2 -> L3.

        Lower-level write-backs are folded into the L3 as dirtying
        writes; only the L3's behaviour reaches main memory.
        """
        l1 = self.l1.access(address, is_write)
        if l1.hit:
            return _L1_HIT
        if l1.writeback_address is not None:
            self._spill_to_l2(l1.writeback_address)
        l2 = self.l2.access(address, is_write)
        if l2.hit:
            return _L2_HIT
        if l2.writeback_address is not None:
            # The L2 victim dirties the L3 (it hits there by inclusion,
            # or allocates).
            self.l3.access(l2.writeback_address, True)
        return self.access_l3(address, is_write)

    def access_l3(self, address: int, is_write: bool) -> HierarchyOutcome:
        """L2-miss-level access: only the DRAM L3 stands before memory.

        A write here is an L2 write-back carrying the full line, so an
        L3 write miss allocates without fetching from main memory; only
        read misses cost a memory read.  Either kind of miss can evict a
        dirty victim toward the ReRAM.
        """
        result = self.l3.access(address, is_write)
        if result.hit:
            return _L3_HIT
        if result.writeback_address is None:
            return _CLEAN_WRITE_MISS if is_write else _CLEAN_READ_MISS
        return HierarchyOutcome(
            "MEM",
            memory_read=not is_write,
            writeback_address=result.writeback_address,
        )

    def _spill_to_l2(self, address: int) -> None:
        l2 = self.l2.access(address, True)
        if l2.writeback_address is not None:
            self.l3.access(l2.writeback_address, True)
