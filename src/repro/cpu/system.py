"""Trace-driven CMP + memory-system simulator (§V).

Eight interval-model cores play their benchmark's L2-miss streams
through private DRAM-L3 slices; L3 misses become main-memory reads
(which stall the issuing core, discounted by MLP) and dirty L3 victims
become main-memory writes (posted, but subject to write-queue
backpressure).  The streams, L3 slices and write masks do not depend on
the scheme: :class:`~repro.cpu.frontend.FrontEnd` records them once and
the simulator replays the records, in the event order its timing
produces.  The ReRAM write path — Flip-N-Write masks, the active
scheme's partitioner and voltage levels, pump constraints, write bursts
— is the event-driven controller of :mod:`repro.mem.controller`.

``Speedup = IPC_tech / IPC_base`` on the identical trace is the paper's
performance metric (§V).
"""

from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..config import SystemConfig
from ..mem.controller import ControllerStats, MemoryController
from ..mem.dimm import AddressMapping, LineLocation
from ..mem.line_codec import LineWriteModel, LineWriteResult
from ..techniques.base import Scheme
from ..workloads.benchmarks import BenchmarkSpec
from ..workloads.datapatterns import WritePatternGenerator
from ..workloads.synthetic import SyntheticStream
from .core import CoreState
from .frontend import L3_HIT, WRITE, WRITEBACK, FrontEnd

__all__ = ["SimulationResult", "SystemSimulator"]


@dataclass
class SimulationResult:
    """Everything a figure driver needs from one run."""

    benchmark: str
    scheme: str
    instructions: int
    elapsed_s: float
    per_core_ipc: list[float]
    stats: ControllerStats
    l3_miss_rate: float
    memory_reads: int
    memory_writes: int

    @property
    def ipc(self) -> float:
        """CMP throughput: the sum of per-core IPCs (§V's metric base)."""
        return sum(self.per_core_ipc)


def _scheduler(
    heap: list[tuple[float, int, Callable[[float], None]]]
) -> Callable[[float, Callable[[float], None]], None]:
    """Event push onto ``heap``, ties broken by insertion order.

    A closure rather than a bound method: the controller keeps it, and
    a controller -> simulator reference cycle would hold every finished
    simulator (and the front end it replayed) until a full collection.
    """
    seq = itertools.count()

    def schedule(time: float, callback: Callable[[float], None]) -> None:
        heapq.heappush(heap, (time, next(seq), callback))

    return schedule


class SystemSimulator:
    """One (benchmark, scheme) run: a front end replayed under a scheme.

    ``frontend`` and ``write_model`` let several schemes share one
    recorded :class:`~repro.cpu.frontend.FrontEnd` and each scheme one
    :class:`~repro.mem.line_codec.LineWriteModel`; without them the
    simulator records and builds its own.
    """

    def __init__(
        self,
        config: SystemConfig,
        scheme: Scheme,
        benchmark: BenchmarkSpec,
        accesses_per_core: int = 20_000,
        seed: int = 1,
        warmup_accesses: int = 0,
        *,
        frontend: FrontEnd | None = None,
        write_model: LineWriteModel | None = None,
    ) -> None:
        if frontend is None:
            frontend = FrontEnd.record(
                config, benchmark, accesses_per_core, seed, warmup_accesses
            )
        elif not frontend.matches(
            config, benchmark, accesses_per_core, seed, warmup_accesses
        ):
            raise ValueError("front end was recorded for a different run")
        if write_model is None:
            write_model = LineWriteModel(config, scheme)
        elif write_model.scheme != scheme or write_model.config != config:
            raise ValueError("write model belongs to a different scheme or config")
        self.config = config
        self.scheme = scheme
        self.benchmark = benchmark
        self.accesses_per_core = accesses_per_core
        self.frontend = frontend
        self.write_model = write_model
        self._heap: list[tuple[float, int, Callable[[float], None]]] = []
        self._schedule = _scheduler(self._heap)
        self.controller = MemoryController(config, scheme, self._schedule)
        self.mapping = AddressMapping(
            config.memory, config.array.size, scheduling=scheme.scheduling
        )
        effective_mlp = min(4.0, float(config.cpu.mshrs_per_core))
        self.cores = [
            CoreState(params=config.cpu, core_id=core_id, effective_mlp=effective_mlp)
            for core_id in range(benchmark.cores)
        ]
        # SCH places lines by popularity rank, a function of the stream
        # parameters alone.
        self._rankers = (
            [SyntheticStream(params) for params in benchmark.streams]
            if scheme.scheduling
            else None
        )
        self._records = [
            zip(core.gaps.tolist(), core.kinds.tolist(), core.addresses.tolist())
            for core in frontend.cores
        ]
        self._victims = [
            zip(core.victims.tolist(), core.resets, core.sets)
            for core in frontend.cores
        ]
        self._remaining = [accesses_per_core] * benchmark.cores
        # Maintenance draws follow the global event order, which depends
        # on the scheme, so they stay in the replay.
        self._maintenance_rng = np.random.default_rng(seed + 991)
        # A dedicated generator keeps demand-write patterns identical
        # across schemes regardless of the maintenance rate.
        self._maintenance_patterns = WritePatternGenerator(
            benchmark.patterns[0], line_bits=frontend.line_bits, seed=seed + 2000
        )

    # -- event engine --------------------------------------------------------------

    def _run_heap(self) -> float:
        last = 0.0
        while self._heap:
            time, _, callback = heapq.heappop(self._heap)
            last = max(last, time)
            callback(time)
        return last

    # -- core behaviour -----------------------------------------------------------------

    def _core_step(self, now: float, core_id: int) -> None:
        if self._remaining[core_id] <= 0:
            return
        self._remaining[core_id] -= 1
        core = self.cores[core_id]
        gap, kind, address = next(self._records[core_id])
        core.advance_compute(gap)
        if kind & L3_HIT:
            if not kind & WRITE:
                core.stall_cycles(self.config.cpu.l3_hit_cycles)
            self._schedule_next(core_id)
            return
        # L3 read miss: fetch the line from main memory (write misses
        # are L2 write-backs carrying the full line -- no fetch).
        issue = core.time_s
        blocked = False
        if not kind & WRITE:
            location = self._locate(core_id, address)

            def on_read_done(completion: float, c=core, t=issue, cid=core_id) -> None:
                c.stall_for_read(t, completion)
                self._schedule_next(cid)

            self.controller.submit_read(issue, location, on_read_done)
            blocked = True
        # ... and a dirty victim, if any, is written back to ReRAM.
        if kind & WRITEBACK:
            self._submit_write(core_id, blocked)
        elif not blocked:
            self._schedule_next(core_id)

    def _submit_write(self, core_id: int, read_blocked: bool) -> None:
        core = self.cores[core_id]
        address, resets, sets = next(self._victims[core_id])
        location = self._locate(core_id, address)
        result = self.write_model.write(resets, sets, location.row)
        now = core.time_s
        # Wear-leveling swaps (or SCH/RBDL migrations) add background
        # line writes proportional to demand writes.
        if self._maintenance_rng.random() < self.scheme.maintenance_write_rate:
            extra_resets, extra_sets = self._maintenance_patterns.masks()
            extra_row = int(self._maintenance_rng.integers(self.config.array.size))
            extra = self.write_model.write(extra_resets, extra_sets, extra_row)
            self.controller.try_submit_write(now, location, extra)

        self._attempt_write(core_id, location, result, read_blocked, now)

    def _attempt_write(
        self,
        core_id: int,
        location: LineLocation,
        result: LineWriteResult,
        read_blocked: bool,
        time: float,
    ) -> None:
        core = self.cores[core_id]
        core.stall_until(time)
        if self.controller.try_submit_write(core.time_s, location, result):
            if not read_blocked:
                self._schedule_next(core_id)
        else:
            # Queue full: the core stalls until a slot frees [35].  (A
            # partial, not a self-referencing closure: no reference cycle
            # outlives the write.)
            self.controller.notify_write_space(
                functools.partial(
                    self._attempt_write, core_id, location, result, read_blocked
                )
            )

    def _locate(self, core_id: int, address: int) -> LineLocation:
        hotness = (
            self._rankers[core_id].hotness_rank(address)
            if self._rankers is not None
            else None
        )
        return self.mapping.locate(address, hotness)

    def _schedule_next(self, core_id: int) -> None:
        if self._remaining[core_id] > 0:
            self._schedule(
                self.cores[core_id].time_s,
                lambda now, cid=core_id: self._core_step(now, cid),
            )

    # -- driving --------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Replay the recorded trace and return the aggregated result."""
        for core_id in range(len(self.cores)):
            self._schedule(
                0.0, lambda now, cid=core_id: self._core_step(now, cid)
            )
        last = self._run_heap()
        # Cores can be parked waiting for a write-queue slot while the
        # event heap is empty (reads stopped arriving, so queued writes
        # never drained).  Force drains until everything retires.
        for _ in range(len(self.cores) * self.accesses_per_core + 1):
            if not any(self._remaining) and self.controller.write_queue_depth == 0:
                break
            self.controller.drain(last)
            if not self._heap:
                break
            last = max(last, self._run_heap())
        if any(self._remaining):
            raise RuntimeError(
                f"simulation deadlock: {self._remaining} accesses unconsumed"
            )
        elapsed = max(core.time_s for core in self.cores)
        return SimulationResult(
            benchmark=self.benchmark.name,
            scheme=self.scheme.name,
            instructions=sum(core.instructions for core in self.cores),
            elapsed_s=elapsed,
            per_core_ipc=[core.ipc for core in self.cores],
            stats=self.controller.stats,
            l3_miss_rate=self.frontend.l3_miss_rate,
            memory_reads=self.controller.stats.reads,
            memory_writes=self.controller.stats.writes,
        )
