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

Recording runs in blocks, one call per core and stage: the stream
draws a whole window (:meth:`~repro.workloads.synthetic.SyntheticStream.draw`),
the L3 serves it in one LRU pass
(:meth:`~repro.cpu.cache.SetAssociativeCache.access_many`), and the
mask generator draws every victim's masks in one call
(:meth:`~repro.workloads.datapatterns.WritePatternGenerator.masks_many`).
The mask generator has its own seed, so its k-th draw belongs to the
k-th victim however the stages interleave; each block method makes the
draws of its per-access case in the same order, so the records are
those of an access-at-a-time loop, bit for bit.

A recording depends only on what :meth:`FrontEnd.record` reads — the
CPU configuration, the line size, the (scaled) benchmark, the sizing
and the seed — and its arrays are read-only, so the simulator takes it
from one bounded process registry, :func:`recorded`: every runner,
figure, sweep variant and pool task of a process shares each
recording.  The array, wire and selector variants of Figs. 18-20 leave
those inputs alone and share one recording per benchmark.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..config import CpuParams, SystemConfig
from ..workloads.benchmarks import BenchmarkSpec
from ..workloads.datapatterns import WritePatternGenerator
from ..workloads.synthetic import SyntheticStream
from ..xpoint.vmap import profile_registry
from .cache import SetAssociativeCache

__all__ = ["WRITE", "L3_HIT", "WRITEBACK", "CoreRecords", "FrontEnd", "recorded"]

#: ``CoreRecords.kinds`` flags.
WRITE = 1  # the access is an L2 write-back (else a read)
L3_HIT = 2  # the DRAM L3 served it
WRITEBACK = 4  # its L3 fill evicted a dirty victim toward the ReRAM


@dataclass(frozen=True, eq=False)
class CoreRecords:
    """One core's measured-window records (read-only arrays)."""

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
        cpu = config.cpu
        line_bits = config.memory.line_bytes * 8
        cores = []
        l3_accesses = l3_misses = 0
        with obs.span("frontend.record", benchmark=benchmark.name):
            for core_id in range(benchmark.cores):
                stream = SyntheticStream(
                    benchmark.streams[core_id], seed=seed + core_id
                )
                l3 = SetAssociativeCache(
                    cpu.l3_bytes_per_core, cpu.l3_ways, cpu.line_bytes
                )
                _, warm_addresses, warm_writes = stream.draw(warmup_accesses)
                l3.access_many(warm_addresses, warm_writes)
                gaps, addresses, writes = stream.draw(accesses_per_core)
                hits, victims = l3.access_many(addresses, writes)
                writebacks = victims >= 0
                kinds = np.zeros(accesses_per_core, dtype=np.uint8)
                kinds[writes] = WRITE
                kinds[hits] |= L3_HIT
                kinds[writebacks] |= WRITEBACK
                # The mask generator is seeded apart from the stream, so
                # its k-th draw is the k-th victim's however they interleave.
                patterns = WritePatternGenerator(
                    benchmark.patterns[core_id],
                    line_bits=line_bits,
                    seed=seed + 1000 + core_id,
                )
                resets, sets = patterns.masks_many(int(writebacks.sum()))
                arrays = (
                    gaps,
                    addresses,
                    kinds,
                    victims[writebacks],
                    np.packbits(resets, axis=1, bitorder="little"),
                    np.packbits(sets, axis=1, bitorder="little"),
                )
                for array in arrays:
                    array.flags.writeable = False  # shared by every replay
                cores.append(CoreRecords(*arrays))
                l3_accesses += l3.accesses
                l3_misses += l3.misses
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
        mine = (
            self.cpu,
            self.line_bits,
            self.benchmark,
            self.accesses_per_core,
            self.seed,
            self.warmup_accesses,
        )
        return mine == _inputs(
            config, benchmark, accesses_per_core, seed, warmup_accesses
        )

    @property
    def l3_miss_rate(self) -> float:
        return self.l3_misses / self.l3_accesses if self.l3_accesses else 0.0


def _inputs(
    config: SystemConfig,
    benchmark: BenchmarkSpec,
    accesses_per_core: int,
    seed: int,
    warmup_accesses: int,
) -> tuple:
    """What :meth:`FrontEnd.record` reads of its arguments."""
    return (
        config.cpu,
        config.memory.line_bytes * 8,
        benchmark,
        accesses_per_core,
        seed,
        warmup_accesses,
    )


#: Most recordings held at once: the Table IV suite (11 benchmarks) at
#: one sizing fits.  The suite holds 6.1 MiB of arrays at ``--quick``
#: sizing and 16.3 MiB at the harness's.
_FRONTENDS_BOUND = 11
_frontends: OrderedDict[tuple, FrontEnd] = OrderedDict()
_frontends_lock = threading.Lock()


def recorded(
    config: SystemConfig,
    benchmark: BenchmarkSpec,
    accesses_per_core: int,
    seed: int,
    warmup_accesses: int = 0,
) -> FrontEnd:
    """The process's shared :class:`FrontEnd` for these arguments of
    :meth:`FrontEnd.record`, recorded on a miss.

    The key is what the recording reads (:func:`_inputs`):
    ``config.cpu``, the line size, the benchmark, the sizing and the
    seed, so configurations that differ only in the array share an
    entry.  Least recently used recordings are dropped past
    :data:`_FRONTENDS_BOUND`, and ``profile_registry.clear()`` drops
    them all.  The recording runs outside the lock; concurrent
    recorders of one key are redundant but consistent, and the first
    insert wins.
    """
    key = _inputs(config, benchmark, accesses_per_core, seed, warmup_accesses)
    with _frontends_lock:
        frontend = _frontends.get(key)
        if frontend is not None:
            _frontends.move_to_end(key)
    if frontend is not None:
        obs.count("frontend.hit")
        return frontend
    obs.count("frontend.miss")
    built = FrontEnd.record(
        config, benchmark, accesses_per_core, seed, warmup_accesses
    )
    with _frontends_lock:
        frontend = _frontends.setdefault(key, built)
        _frontends.move_to_end(key)
        while len(_frontends) > _FRONTENDS_BOUND:
            _frontends.popitem(last=False)
    return frontend


def _clear_frontends() -> None:
    with _frontends_lock:
        _frontends.clear()


profile_registry.derive(_clear_frontends)
