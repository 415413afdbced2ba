"""Set-associative cache model (Table III's L1/L2/L3).

A functional write-back, write-allocate cache with LRU replacement.
``access`` reports the hit/miss outcome and any dirty victim evicted by
the fill — the victim write-backs are what become ReRAM main-memory
writes once they fall out of the in-package DRAM L3.

LRU is kept in each set's dict insertion order: a hit moves its tag to
the end, so the first tag is the least recently used.  Sets are
dictionaries keyed by set index so multi-gigabyte address spaces cost
memory proportional to the cache, not the footprint.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["AccessResult", "SetAssociativeCache"]


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one cache access."""

    hit: bool
    writeback_address: int | None  # dirty victim evicted by the fill


_HIT = AccessResult(hit=True, writeback_address=None)
_CLEAN_MISS = AccessResult(hit=False, writeback_address=None)


class SetAssociativeCache:
    """Write-back, write-allocate, LRU set-associative cache."""

    def __init__(self, size_bytes: int, ways: int, line_bytes: int = 64) -> None:
        if size_bytes <= 0 or ways <= 0 or line_bytes <= 0:
            raise ValueError("cache geometry must be positive")
        if size_bytes % (ways * line_bytes):
            raise ValueError(
                f"size {size_bytes} not divisible by ways*line "
                f"({ways} * {line_bytes})"
            )
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_bytes = line_bytes
        self.sets = size_bytes // (ways * line_bytes)
        # set index -> {tag: dirty}, least recently used first
        self._sets: dict[int, dict[int, bool]] = {}
        self.hits = 0
        self.misses = 0

    def _locate(self, address: int) -> tuple[int, int]:
        line = address // self.line_bytes
        return line % self.sets, line // self.sets

    def access(self, address: int, is_write: bool) -> AccessResult:
        """Read or write one line; allocate on miss."""
        if address < 0:
            raise ValueError(f"address must be >= 0, got {address}")
        set_index, tag = self._locate(address)
        ways = self._sets.get(set_index)
        if ways is None:
            ways = self._sets[set_index] = {}
        dirty = ways.pop(tag, None)
        if dirty is not None:
            ways[tag] = dirty or is_write
            self.hits += 1
            return _HIT
        self.misses += 1
        result = _CLEAN_MISS
        if len(ways) >= self.ways:
            victim_tag = next(iter(ways))
            if ways.pop(victim_tag):
                victim_line = victim_tag * self.sets + set_index
                result = AccessResult(
                    hit=False, writeback_address=victim_line * self.line_bytes
                )
        ways[tag] = is_write
        return result

    def contains(self, address: int) -> bool:
        """Whether the line is currently cached (no LRU update)."""
        set_index, tag = self._locate(address)
        return tag in self._sets.get(set_index, {})

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0
