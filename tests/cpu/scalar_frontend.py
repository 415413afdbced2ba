"""Per-access oracle of the front-end recording.

The access-at-a-time implementations the block methods replaced: a
stream that draws one access per call, a mask generator that draws one
write per call, and the loop that played them, with the stamp-LRU cache
oracle as the L3, into :class:`~repro.cpu.frontend.CoreRecords`.
The block path must make exactly these draws in exactly this order.
"""

from __future__ import annotations

import numpy as np

from repro.cpu.frontend import L3_HIT, WRITE, WRITEBACK
from repro.workloads.datapatterns import WritePatternGenerator
from repro.workloads.synthetic import SyntheticStream

from .test_cache import StampLRU


class ScalarStream(SyntheticStream):
    """One access per call: gap, [run length], [rank], write."""

    def _draw_rank(self) -> int:
        u = self._rng.random()
        alpha = self.params.zipf_alpha
        if abs(alpha - 1.0) < 1e-9:
            rank = self._q * np.exp(u * self._log_base) - self._q
        else:
            power = 1.0 - alpha
            rank = (
                self._pow_lo + u * (self._pow_hi - self._pow_lo)
            ) ** (1.0 / power) - self._q
        return min(self._n - 1, max(0, int(rank)))

    def _next_line(self) -> int:
        if self._run_remaining > 0:
            self._run_remaining -= 1
            self._run_line = (self._run_line + 1) % self.params.working_set_lines
            return self._run_line
        if self.params.run_length > 1.0:
            self._run_remaining = int(
                self._rng.geometric(1.0 / self.params.run_length)
            ) - 1
        line = (self._draw_rank() * self._mult) % self._n
        self._run_line = line
        return line

    def scalar_access(self) -> tuple[int, int, bool]:
        """``(gap, address, is_write)`` of the next access."""
        gap = int(self._rng.geometric(self._mpki / 1000.0))
        line = self._next_line()
        address = self.params.address_base + line * self.LINE_BYTES
        is_write = bool(self._rng.random() < self._write_probability)
        return gap, address, is_write


class ScalarPatterns(WritePatternGenerator):
    """One write per call: a ``random`` call per dirty word, then one more."""

    def scalar_masks(self) -> tuple[np.ndarray, np.ndarray]:
        params = self.params
        rng = self._rng
        dirty = min(
            self.words, int(rng.geometric(1.0 / self._mean_dirty_words))
        )
        dirty_words = rng.choice(self.words, size=dirty, replace=False)
        changed = np.zeros(self.line_bits, dtype=bool)
        for word in dirty_words:
            start = word * params.word_bits
            flips = rng.random(params.word_bits) < params.in_word_change
            changed[start : start + params.word_bits] = flips
        direction = rng.random(self.line_bits) < 0.5
        return changed & direction, changed & ~direction


def scalar_record(config, benchmark, accesses_per_core, seed, warmup_accesses=0):
    """Per core the six record arrays, plus the summed L3 counters."""
    cpu = config.cpu
    line_bits = config.memory.line_bytes * 8
    cores = []
    l3_accesses = l3_misses = 0
    for core_id in range(benchmark.cores):
        stream = ScalarStream(benchmark.streams[core_id], seed=seed + core_id)
        patterns = ScalarPatterns(
            benchmark.patterns[core_id],
            line_bits=line_bits,
            seed=seed + 1000 + core_id,
        )
        l3 = StampLRU(cpu.l3_bytes_per_core, cpu.l3_ways, cpu.line_bytes)
        for _ in range(warmup_accesses):
            _, address, is_write = stream.scalar_access()
            l3.access(address, is_write)
        gaps, addresses, kinds = [], [], []
        victims, resets, sets = [], [], []
        for _ in range(accesses_per_core):
            gap, address, is_write = stream.scalar_access()
            hit, victim = l3.access(address, is_write)
            kind = WRITE if is_write else 0
            if hit:
                kind |= L3_HIT
            elif victim is not None:
                kind |= WRITEBACK
                victims.append(victim)
                reset_mask, set_mask = patterns.scalar_masks()
                resets.append(np.packbits(reset_mask, bitorder="little"))
                sets.append(np.packbits(set_mask, bitorder="little"))
            gaps.append(gap)
            addresses.append(address)
            kinds.append(kind)
        line_bytes = config.memory.line_bytes
        cores.append(
            {
                "gaps": np.array(gaps, dtype=np.int64),
                "addresses": np.array(addresses, dtype=np.int64),
                "kinds": np.array(kinds, dtype=np.uint8),
                "victims": np.array(victims, dtype=np.int64),
                "resets": np.array(resets, dtype=np.uint8).reshape(-1, line_bytes),
                "sets": np.array(sets, dtype=np.uint8).reshape(-1, line_bytes),
            }
        )
        l3_accesses += l3.hits + l3.misses
        l3_misses += l3.misses
    return cores, l3_accesses, l3_misses
