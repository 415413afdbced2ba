"""Set-associative cache model (Table III's L1/L2/L3).

A functional write-back, write-allocate cache with LRU replacement.
``access_many`` reports, per access of a block, the hit/miss outcome
and any dirty victim evicted by the fill (``access`` is its one-access
case) — the victim write-backs are what become ReRAM main-memory
writes once they fall out of the in-package DRAM L3.

LRU is kept in each set's dict insertion order: a hit moves its tag to
the end, so the first tag is the least recently used.  Sets are
dictionaries keyed by set index so multi-gigabyte address spaces cost
memory proportional to the cache, not the footprint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        """Read or write one line; allocate on miss (:meth:`access_many` of one)."""
        hits, victims = self.access_many([address], [is_write])
        if hits[0]:
            return _HIT
        victim = int(victims[0])
        if victim < 0:
            return _CLEAN_MISS
        return AccessResult(hit=False, writeback_address=victim)

    def access_many(self, addresses, writes) -> tuple[np.ndarray, np.ndarray]:
        """Read or write each line in order; allocate on miss.

        Returns per access whether it hit and the byte address of the
        dirty victim its fill evicted (-1 for none), as bool and int64
        arrays.  Set indices and tags are computed for the whole block
        up front; the LRU updates run in access order.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        if addresses.size and int(addresses.min()) < 0:
            raise ValueError(f"address must be >= 0, got {int(addresses.min())}")
        lines = addresses // self.line_bytes
        set_indices = (lines % self.sets).tolist()
        tags = (lines // self.sets).tolist()
        count = len(tags)
        hits = [False] * count
        victims = [-1] * count
        cache_sets, ways_per_set = self._sets, self.ways
        sets, line_bytes = self.sets, self.line_bytes
        for index, set_index, tag, is_write in zip(
            range(count), set_indices, tags, np.asarray(writes, dtype=bool).tolist()
        ):
            ways = cache_sets.get(set_index)
            if ways is None:
                ways = cache_sets[set_index] = {}
            dirty = ways.pop(tag, None)
            if dirty is not None:
                ways[tag] = dirty or is_write
                hits[index] = True
                continue
            if len(ways) >= ways_per_set:
                victim_tag = next(iter(ways))
                if ways.pop(victim_tag):
                    victims[index] = (victim_tag * sets + set_index) * line_bytes
            ways[tag] = is_write
        hit_count = sum(hits)
        self.hits += hit_count
        self.misses += count - hit_count
        return np.array(hits, dtype=bool), np.array(victims, dtype=np.int64)

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
