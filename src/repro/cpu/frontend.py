"""Scheme-independent front end of the system simulator (§V).

Everything upstream of the memory controller — each core's L2-miss
stream, its private DRAM-L3 slice and its Flip-N-Write mask generator —
is seeded per core and consumed in per-core order, so it is identical
for every scheme simulated on the same (benchmark, sizing, seed).
:meth:`FrontEnd.record` plays it once: it warms each core's L3 (untimed,
no memory traffic), then records the measured window in compact arrays
— per access its instruction gap, address and L3 outcome, per dirty
victim its address and RESET/SET masks packed one byte per MAT.
:class:`~repro.cpu.system.SystemSimulator` replays the records through a
scheme's address mapping, line-write model and memory controller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import CpuParams, SystemConfig
from ..workloads.benchmarks import BenchmarkSpec
from ..workloads.datapatterns import WritePatternGenerator
from ..workloads.synthetic import SyntheticStream
from .hierarchy import CoreCacheHierarchy

__all__ = ["WRITE", "L3_HIT", "WRITEBACK", "CoreRecords", "FrontEnd"]

#: ``CoreRecords.kinds`` flags.
WRITE = 1  # the access is an L2 write-back (else a read)
L3_HIT = 2  # the DRAM L3 served it
WRITEBACK = 4  # its L3 fill evicted a dirty victim toward the ReRAM


@dataclass(frozen=True, eq=False)
class CoreRecords:
    """One core's measured-window records."""

    gaps: np.ndarray  # int64: instructions retired before each access
    addresses: np.ndarray  # int64: byte address of each access
    kinds: np.ndarray  # uint8: WRITE | L3_HIT | WRITEBACK flags
    victims: np.ndarray  # int64: address of each dirty victim, in order
    resets: np.ndarray  # uint8 (victims, line bytes): packed RESET masks
    sets: np.ndarray  # uint8 (victims, line bytes): packed SET masks


@dataclass(frozen=True, eq=False)
class FrontEnd:
    """A benchmark's recorded front end, shared by every scheme's replay."""

    benchmark: BenchmarkSpec
    cpu: CpuParams
    line_bits: int
    accesses_per_core: int
    warmup_accesses: int
    seed: int
    cores: tuple[CoreRecords, ...]
    l3_accesses: int  # warm-up included, as the L3 counters saw them
    l3_misses: int

    @classmethod
    def record(
        cls,
        config: SystemConfig,
        benchmark: BenchmarkSpec,
        accesses_per_core: int,
        seed: int,
        warmup_accesses: int = 0,
    ) -> "FrontEnd":
        """Play every core's stream through its L3 and record the outcome."""
        line_bits = config.memory.line_bytes * 8
        cores = []
        l3_accesses = l3_misses = 0
        for core_id in range(benchmark.cores):
            stream = SyntheticStream(benchmark.streams[core_id], seed=seed + core_id)
            patterns = WritePatternGenerator(
                benchmark.patterns[core_id],
                line_bits=line_bits,
                seed=seed + 1000 + core_id,
            )
            hierarchy = CoreCacheHierarchy(config.cpu)
            for _ in range(warmup_accesses):
                access = stream.next_access()
                hierarchy.access_l3(access.address, access.is_write)
            gaps, addresses, kinds = [], [], []
            victims, resets, sets = [], [], []
            for _ in range(accesses_per_core):
                access = stream.next_access()
                outcome = hierarchy.access_l3(access.address, access.is_write)
                kind = WRITE if access.is_write else 0
                if outcome.level == "L3":
                    kind |= L3_HIT
                elif outcome.writeback_address is not None:
                    kind |= WRITEBACK
                    victims.append(outcome.writeback_address)
                    reset_mask, set_mask = patterns.masks()
                    resets.append(np.packbits(reset_mask, bitorder="little"))
                    sets.append(np.packbits(set_mask, bitorder="little"))
                gaps.append(access.gap_instructions)
                addresses.append(access.address)
                kinds.append(kind)
            line_bytes = config.memory.line_bytes
            cores.append(
                CoreRecords(
                    gaps=np.array(gaps, dtype=np.int64),
                    addresses=np.array(addresses, dtype=np.int64),
                    kinds=np.array(kinds, dtype=np.uint8),
                    victims=np.array(victims, dtype=np.int64),
                    resets=np.array(resets, dtype=np.uint8).reshape(-1, line_bytes),
                    sets=np.array(sets, dtype=np.uint8).reshape(-1, line_bytes),
                )
            )
            l3_accesses += hierarchy.l3.accesses
            l3_misses += hierarchy.l3.misses
        return cls(
            benchmark=benchmark,
            cpu=config.cpu,
            line_bits=line_bits,
            accesses_per_core=accesses_per_core,
            warmup_accesses=warmup_accesses,
            seed=seed,
            cores=tuple(cores),
            l3_accesses=l3_accesses,
            l3_misses=l3_misses,
        )

    def matches(
        self,
        config: SystemConfig,
        benchmark: BenchmarkSpec,
        accesses_per_core: int,
        seed: int,
        warmup_accesses: int,
    ) -> bool:
        """Whether :meth:`record` with these arguments gives this front end."""
        return (
            self.benchmark == benchmark
            and self.cpu == config.cpu
            and self.line_bits == config.memory.line_bytes * 8
            and self.accesses_per_core == accesses_per_core
            and self.seed == seed
            and self.warmup_accesses == warmup_accesses
        )

    @property
    def l3_miss_rate(self) -> float:
        return self.l3_misses / self.l3_accesses if self.l3_accesses else 0.0
