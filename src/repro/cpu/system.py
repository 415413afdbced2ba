"""Trace-driven CMP + memory-system simulator (§V).

Eight interval-model cores play their benchmark's L2-miss streams
through private DRAM-L3 slices; L3 misses become main-memory reads
(which stall the issuing core, discounted by MLP) and dirty L3 victims
become main-memory writes (posted, but subject to write-queue
backpressure).  The streams, L3 slices and write masks do not depend on
the scheme: :class:`~repro.cpu.frontend.FrontEnd` records them once and
the simulator replays the records.  Its events pop off one heap in
(time, push order), each an integer code: ``~core`` steps a core, and
the controller's bank events are non-negative.  A step that touches no
memory runs at once when its successor is strictly the next event.  The
ReRAM write path — Flip-N-Write masks, the active scheme's partitioner
and voltage levels, pump constraints, write bursts — is the
event-driven controller of :mod:`repro.mem.controller`.

``Speedup = IPC_tech / IPC_base`` on the identical trace is the paper's
performance metric (§V).
"""

from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .. import obs
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
from .frontend import L3_HIT, WRITE, WRITEBACK, FrontEnd, recorded

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


def _push(heap: list, order: Iterator[int], time: float, code: int) -> None:
    """Push event ``code`` at ``time``; equal times pop in push order."""
    heapq.heappush(heap, (time, next(order), code))


class SystemSimulator:
    """One (benchmark, scheme) run: a front end replayed under a scheme.

    ``frontend`` replays a given recorded
    :class:`~repro.cpu.frontend.FrontEnd`; without it the simulator
    takes the run's recording from the process registry
    (:func:`~repro.cpu.frontend.recorded`).  Without ``write_model`` it
    takes the scheme's :class:`~repro.mem.line_codec.LineWriteModel`
    from the process registry (:func:`~repro.mem.line_codec.write_model`,
    default solver).
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
            frontend = recorded(
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
        # Events are (time, push order, code).  The controller's push is a
        # partial over the heap, not a bound method: a controller ->
        # simulator cycle would hold every finished simulator (and its
        # front end) until a full collection.
        self._heap: list[tuple[float, int, int]] = []
        self._order = itertools.count()
        self.controller = MemoryController(
            config, scheme, functools.partial(_push, self._heap, self._order)
        )
        self.mapping = AddressMapping(
            config.memory, config.array.size, scheduling=scheme.scheduling
        )
        effective_mlp = min(4.0, float(config.cpu.mshrs_per_core))
        self.cores = [
            CoreState(params=config.cpu, core_id=core_id, effective_mlp=effective_mlp)
            for core_id in range(benchmark.cores)
        ]
        self._l3_hit_s = config.cpu.l3_hit_cycles * config.cpu.cycle_s
        self._mlp = max(1.0, effective_mlp)
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
        self._records = self._victims = self._maintenance = None
        self._issued = self._read_done = None

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
        """Pop events in (time, push order); returns the latest time popped.

        After a step that touches no memory (an L3 hit, or a write miss
        with no dirty victim), the core's next step would be the next pop
        if its time is strictly below every queued one: the core takes it
        at once.  On an equal time the queued event, pushed first, wins.
        """
        heap, order, cores = self._heap, self._order, self.cores
        records, remaining, issued = self._records, self._remaining, self._issued
        read_done, l3_hit_s = self._read_done, self._l3_hit_s
        fire, submit_read = self.controller.fire, self.controller.submit_read
        pop, push = heapq.heappop, heapq.heappush
        last, inline = 0.0, 0
        while heap:
            time, _, code = pop(heap)
            if time > last:
                last = time
            if code >= 0:
                fire(code, time)
                continue
            core_id = ~code
            core, steps, left = cores[core_id], records[core_id], remaining[core_id]
            now, stall = core.time_s, core.stall_s
            while True:
                left -= 1
                compute_s, kind, bank = next(steps)
                now += compute_s
                if not kind & L3_HIT and kind != WRITE:
                    break  # the step goes to memory
                if not kind & WRITE:
                    now += l3_hit_s
                    stall += l3_hit_s
                if not left:
                    break
                if heap and heap[0][0] <= now:
                    push(heap, (now, next(order), code))
                    break
                inline += 1
                if now > last:
                    last = now
            core.time_s, core.stall_s, remaining[core_id] = now, stall, left
            if kind & L3_HIT or kind == WRITE:
                continue
            # L3 read miss: fetch the line from main memory (write misses
            # are L2 write-backs carrying the full line -- no fetch) ...
            blocked = not kind & WRITE
            if blocked:
                issued[core_id] = now
                submit_read(now, bank, read_done[core_id])
            # ... and a dirty victim, if any, is written back to ReRAM.
            if kind & WRITEBACK:
                self._submit_write(core_id, blocked)
        self._inline_steps += inline
        return last

    # -- core behaviour -----------------------------------------------------------------

    def _read_complete(self, core_id: int, completion: float) -> None:
        """The core's read is back: it stalls for the exposed latency."""
        core = self.cores[core_id]
        issued = self._issued[core_id]
        latency = completion - issued
        exposed = (latency if latency > 0.0 else 0.0) / self._mlp
        done = issued + exposed
        if done > core.time_s:
            core.time_s = done
        core.stall_s += exposed
        self._schedule_next(core_id)

    def _submit_write(self, core_id: int, blocked: bool) -> None:
        bank, result = next(self._victims[core_id])
        now = self.cores[core_id].time_s
        extra = next(self._maintenance)
        if extra is not None:
            self.controller.try_submit_write(now, bank, extra)
        self._attempt_write(core_id, bank, result, blocked, now)

    def _attempt_write(
        self, core_id: int, bank: int, result: LineWriteResult, blocked: bool, at: float
    ) -> None:
        core = self.cores[core_id]
        core.stall_until(at)
        if self.controller.try_submit_write(core.time_s, bank, result):
            if not blocked:
                self._schedule_next(core_id)
        else:
            # Queue full: the core stalls until a slot frees [35].
            self.controller.notify_write_space(
                functools.partial(self._attempt_write, core_id, bank, result, blocked)
            )

    def _schedule_next(self, core_id: int) -> None:
        if self._remaining[core_id] > 0:
            _push(self._heap, self._order, self.cores[core_id].time_s, ~core_id)

    # -- driving --------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Replay the recorded trace and return the aggregated result."""
        cores = range(len(self.cores))
        self._records, self._victims = self._replay_tables()
        self._maintenance = self._maintenance_writes(
            sum(core.victims.size for core in self.frontend.cores)
        )
        self._issued = [0.0] * len(self.cores)
        self._read_done = [functools.partial(self._read_complete, c) for c in cores]
        self._inline_steps = 0
        try:
            for core_id in cores:
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
        finally:
            # The callables are bound to this simulator: dropping them
            # leaves no reference cycle, so a finished simulator (and the
            # front end it replayed) is freed as soon as it is unused.
            self._records = self._victims = self._maintenance = None
            self._issued = self._read_done = None
        if any(self._remaining):
            raise RuntimeError(
                f"simulation deadlock: {self._remaining} accesses unconsumed"
            )
        # Every event pushed is popped, and a push takes the next number.
        obs.count("sim.events", next(self._order))
        obs.count("sim.inline_steps", self._inline_steps)
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
