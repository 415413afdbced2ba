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
from typing import Callable, Iterator

import numpy as np

from ..config import SystemConfig
from ..mem import line_codec
from ..mem.controller import ControllerStats, MemoryController
from ..mem.dimm import AddressMapping
from ..mem.line_codec import LineWriteModel, LineWriteResult
from ..techniques.base import Scheme
from ..workloads.benchmarks import BenchmarkSpec
from ..workloads.datapatterns import WritePatternGenerator
from ..workloads.synthetic import SyntheticStream
from .core import CoreState, compute_seconds
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

    ``frontend`` lets several schemes share one recorded
    :class:`~repro.cpu.frontend.FrontEnd`; without it the simulator
    records its own.  Without ``write_model`` it takes the scheme's
    :class:`~repro.mem.line_codec.LineWriteModel` from the process
    registry (:func:`~repro.mem.line_codec.write_model`, default solver).
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
            write_model = line_codec.write_model(config, scheme)
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
        self._l3_hit_s = config.cpu.l3_hit_cycles * config.cpu.cycle_s
        self._remaining = [accesses_per_core] * benchmark.cores
        # The k-th demand write in event order takes the k-th draws of
        # these two generators, whatever the scheme's timing.
        self._maintenance_rng = np.random.default_rng(seed + 991)
        # A dedicated generator keeps demand-write patterns identical
        # across schemes regardless of the maintenance rate.
        self._maintenance_patterns = WritePatternGenerator(
            benchmark.patterns[0], line_bits=frontend.line_bits, seed=seed + 2000
        )
        # Per-run replay state, set by ``run`` and dropped when it ends.
        self._records: list | None = None
        self._victims: list | None = None
        self._maintenance: Iterator[LineWriteResult | None] | None = None
        self._issued: list[float] | None = None
        self._steps: list | None = None
        self._read_done: list | None = None

    # -- replay tables ------------------------------------------------------------

    def _replay_tables(self) -> tuple[list, list]:
        """Per core, iterators over its access and victim records.

        Accesses yield ``(compute seconds, kind, bank)``, victims
        ``(bank, line write result)``; every line is placed once, with
        NumPy, and every victim is written in one ``write_many`` call.
        """
        cpu = self.config.cpu
        cores = self.frontend.cores
        records, placed = [], []
        for params, core in zip(self.benchmark.streams, cores):
            # SCH places lines by popularity rank, a function of the
            # stream parameters alone.
            ranker = SyntheticStream(params) if self.scheme.scheduling else None
            banks, _ = self._place(ranker, core.addresses)
            records.append(
                zip(
                    compute_seconds(core.gaps, cpu).tolist(),
                    core.kinds.tolist(),
                    banks.tolist(),
                )
            )
            placed.append(self._place(ranker, core.victims))
        results = self.write_model.write_many(
            np.concatenate([core.resets for core in cores]),
            np.concatenate([core.sets for core in cores]),
            np.concatenate([rows for _, rows in placed]),
        )
        victims, start = [], 0
        for banks, _ in placed:
            victims.append(zip(banks.tolist(), results[start : start + banks.size]))
            start += banks.size
        return records, victims

    def _maintenance_writes(
        self, demand_writes: int
    ) -> Iterator[LineWriteResult | None]:
        """Per demand write, in event order, its maintenance write or ``None``.

        Wear-leveling swaps (or SCH/RBDL migrations) add background line
        writes proportional to demand writes.  The draws depend only on
        how many demand writes came before, so they are all made here.
        """
        rng = self._maintenance_rng
        rate = self.scheme.maintenance_write_rate
        hits, rows = [], []
        for index in range(demand_writes):
            if rng.random() < rate:
                hits.append(index)
                rows.append(int(rng.integers(self.config.array.size)))
        extras = [None] * demand_writes
        if hits:
            # The masks have their own generator: the k-th hit takes its
            # k-th draw, so all of them come in one call.
            resets, sets = self._maintenance_patterns.masks_many(len(hits))
            results = self.write_model.write_many(resets, sets, rows)
            for index, result in zip(hits, results):
                extras[index] = result
        return iter(extras)

    def _place(
        self, ranker: SyntheticStream | None, addresses: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        hotness = None if ranker is None else ranker.hotness_ranks(addresses)
        return self.mapping.locate_many(addresses, hotness)

    # -- event engine --------------------------------------------------------------

    def _run_heap(self) -> float:
        heap = self._heap
        pop = heapq.heappop
        last = 0.0
        while heap:
            time, _, callback = pop(heap)
            if time > last:
                last = time
            callback(time)
        return last

    # -- core behaviour -----------------------------------------------------------------

    def _core_step(self, core_id: int, now: float) -> None:
        self._remaining[core_id] -= 1
        core = self.cores[core_id]
        compute_s, kind, bank = next(self._records[core_id])
        core.time_s += compute_s
        if kind & L3_HIT:
            if not kind & WRITE:
                core.time_s += self._l3_hit_s
                core.stall_s += self._l3_hit_s
            self._schedule_next(core_id)
            return
        # L3 read miss: fetch the line from main memory (write misses
        # are L2 write-backs carrying the full line -- no fetch).
        blocked = not kind & WRITE
        if blocked:
            self._issued[core_id] = core.time_s
            self.controller.submit_read(
                core.time_s, bank, self._read_done[core_id]
            )
        # ... and a dirty victim, if any, is written back to ReRAM.
        if kind & WRITEBACK:
            self._submit_write(core_id, blocked)
        elif not blocked:
            self._schedule_next(core_id)

    def _read_complete(self, core_id: int, completion: float) -> None:
        self.cores[core_id].stall_for_read(self._issued[core_id], completion)
        self._schedule_next(core_id)

    def _submit_write(self, core_id: int, read_blocked: bool) -> None:
        bank, result = next(self._victims[core_id])
        now = self.cores[core_id].time_s
        extra = next(self._maintenance)
        if extra is not None:
            self.controller.try_submit_write(now, bank, extra)
        self._attempt_write(core_id, bank, result, read_blocked, now)

    def _attempt_write(
        self,
        core_id: int,
        bank: int,
        result: LineWriteResult,
        read_blocked: bool,
        time: float,
    ) -> None:
        core = self.cores[core_id]
        core.stall_until(time)
        if self.controller.try_submit_write(core.time_s, bank, result):
            if not read_blocked:
                self._schedule_next(core_id)
        else:
            # Queue full: the core stalls until a slot frees [35].  (A
            # partial, not a self-referencing closure: no reference cycle
            # outlives the write.)
            self.controller.notify_write_space(
                functools.partial(
                    self._attempt_write, core_id, bank, result, read_blocked
                )
            )

    def _schedule_next(self, core_id: int) -> None:
        if self._remaining[core_id] > 0:
            self._schedule(self.cores[core_id].time_s, self._steps[core_id])

    # -- driving --------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Replay the recorded trace and return the aggregated result."""
        cores = range(len(self.cores))
        self._records, self._victims = self._replay_tables()
        self._maintenance = self._maintenance_writes(
            sum(core.victims.size for core in self.frontend.cores)
        )
        self._issued = [0.0] * len(self.cores)
        self._steps = [functools.partial(self._core_step, c) for c in cores]
        self._read_done = [functools.partial(self._read_complete, c) for c in cores]
        try:
            self._replay()
        finally:
            # The callables are bound to this simulator: dropping them
            # leaves no reference cycle, so a finished simulator (and the
            # front end it replayed) is freed as soon as it is unused.
            self._records = self._victims = self._maintenance = None
            self._issued = None
            self._steps = self._read_done = None
        elapsed = max(core.time_s for core in self.cores)
        for core, records in zip(self.cores, self.frontend.cores):
            core.instructions = int(records.gaps.sum())
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

    def _replay(self) -> None:
        """Play every core's records through the controller."""
        for core_id in range(len(self.cores)):
            self._schedule_next(core_id)
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
