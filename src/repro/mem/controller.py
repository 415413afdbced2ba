"""Read-priority memory controller with write bursts (Table III, [35]).

Scheduling policy, following the paper's baseline:

* reads have absolute priority: a bank serves its oldest waiting read
  first;
* writes are issued only when no read is waiting anywhere in the
  channel — except during a **write burst**: when the write queue fills,
  the controller blocks all reads and drains the queue completely [35];
* every write phase must respect the charge pump: the rank's pump
  charges for ``t_charge`` before the phase and sources at most the
  budgeted current, so over-budget writes (D-BL dummies in the worst
  case) split into multiple phases;
* writes occupy their bank for the line's RESET+SET latency, which the
  scheme's partitioner and voltage regulator determine per write.

The controller is event-driven but engine-agnostic: the owner supplies
``schedule(time, code)`` (the CPU simulator's heap) and hands each code
back to :meth:`MemoryController.fire` at its time, in (time, push order).
Code ``bank`` frees a bank, ``banks + bank`` wakes an idle one; negative
codes are the owner's.  Reads complete through per-request callbacks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from ..config import SystemConfig
from ..techniques.base import Scheme
from .line_codec import LineWriteResult
from .timing import MemoryTiming

__all__ = ["ControllerStats", "MemoryController"]


@dataclass
class ControllerStats:
    """Aggregate counters for performance and energy analysis."""

    reads: int = 0
    writes: int = 0
    read_latency_sum: float = 0.0
    write_queue_stall_time: float = 0.0
    write_bursts: int = 0
    pump_charges: int = 0
    reset_bits: int = 0
    set_bits: int = 0
    extra_resets: int = 0
    extra_sets: int = 0
    reset_energy_j: float = 0.0
    set_energy_j: float = 0.0
    write_phases: int = 0
    busy_time: float = 0.0
    write_latency_sum: float = 0.0


class MemoryController:
    """One channel's controller over all its ranks and banks.

    Banks are keyed by :attr:`~repro.mem.dimm.LineLocation.bank_index`,
    ``(channel * ranks + rank) * banks + bank``; a bank's rank (and
    charge pump) is ``bank_index // banks``.
    """

    def __init__(
        self,
        config: SystemConfig,
        scheme: Scheme,
        schedule: Callable[[float, int], None],
    ) -> None:
        self.config = config
        self.scheme = scheme
        self.schedule = schedule
        self.timing = timing = MemoryTiming.from_params(config.memory, config.cpu)
        self._mc_to_bank = timing.mc_to_bank
        self._read_service = timing.read_service
        self._bus_transfer = timing.bus_transfer
        memory = config.memory
        self._banks = banks = memory.total_banks
        self._banks_per_rank = memory.banks_per_rank
        self._bank_free = [0.0] * banks
        self._bank_busy = [False] * banks
        # Per bank, oldest first: waiting reads as (arrival, on_complete)
        # and queued writes as (arrival, result).  A bank's oldest write
        # is the oldest queued write addressed to it.
        self._bank_read_q: list[deque] = [deque() for _ in range(banks)]
        self._bank_write_q: list[deque] = [deque() for _ in range(banks)]
        self._queued_writes = 0
        # Pump constraint: per rank, the outstanding write phases'
        # concurrent RESETs may not exceed the current budget (23 mA /
        # 90 uA = 256 bit-RESETs).  Each entry is (end_time, resets).
        self._pump_active: list[list[tuple[float, int]]] = [
            [] for _ in range(memory.channels * memory.ranks_per_channel)
        ]
        self._write_capacity = memory.write_queue_entries
        self._burst = False
        self._waiting_reads = 0
        self._write_waiters: deque[Callable[[float], None]] = deque()
        self.stats = ControllerStats()
        pump = config.pump
        self._charge_latency = (
            pump.t_charge * scheme.overheads.pump_charge_latency_factor
        )
        self._reset_budget = int(
            pump.max_concurrent_writes * scheme.overheads.write_current_factor
        )

    # -- public interface ---------------------------------------------------------

    def submit_read(
        self, now: float, bank: int, on_complete: Callable[[float], None]
    ) -> None:
        """Queue a line read on ``bank``; ``on_complete(finish_time)`` fires later."""
        self._bank_read_q[bank].append((now, on_complete))
        self._waiting_reads += 1
        self._dispatch(bank, now + self._mc_to_bank)

    def try_submit_write(
        self, now: float, bank: int, result: LineWriteResult
    ) -> bool:
        """Queue a line write on ``bank``; False if the queue is full (backpressure).

        A rejected caller may register with :meth:`notify_write_space`.
        """
        if self._queued_writes >= self._write_capacity:
            return False
        self._bank_write_q[bank].append((now, result))
        self._queued_writes += 1
        if self._queued_writes >= self._write_capacity:
            # Queue just filled: enter write-burst mode and push every
            # bank to start draining [35].
            self._burst = True
            self.stats.write_bursts += 1
            for key in range(self._banks):
                self._dispatch(key, now)
        elif self._waiting_reads == 0:
            self._dispatch(bank, now + self._mc_to_bank)
        return True

    def notify_write_space(self, waiter: Callable[[float], None]) -> None:
        """Call ``waiter(time)`` when a write-queue slot frees up."""
        self._write_waiters.append(waiter)

    def drain(self, now: float) -> None:
        """Force all queued writes to issue (end of simulation)."""
        self._burst = bool(self._queued_writes)
        for key in range(self._banks):
            self._dispatch(key, now)

    def fire(self, code: int, now: float) -> None:
        """Handle a bank event at its time; a bank with nothing queued idles."""
        if code < self._banks:
            self._bank_busy[code] = False  # the bank's command finished
        else:
            code -= self._banks
        if self._bank_read_q[code] or self._bank_write_q[code]:
            self._dispatch(code, now)

    @property
    def write_queue_depth(self) -> int:
        return self._queued_writes

    # -- scheduling core --------------------------------------------------------------

    def _dispatch(self, bank: int, now: float) -> None:
        """Issue the next command for a bank if it is idle.

        Reads waiting out a write burst stay queued; the bank-free event
        of the last burst write re-dispatches them.
        """
        if self._bank_busy[bank]:
            return
        free = self._bank_free[bank]
        if free > now:
            now = free
        read_q = self._bank_read_q[bank]
        if read_q and not self._burst:
            # Issue the oldest read; the bank is busy until its data is out.
            arrival, on_complete = read_q.popleft()
            self._waiting_reads -= 1
            begin = arrival + self._mc_to_bank
            if now > begin:
                begin = now
            finish = begin + self._read_service
            completion = finish + self._bus_transfer
            self._bank_busy[bank] = True
            self._bank_free[bank] = finish
            stats = self.stats
            stats.busy_time += finish - begin
            self.schedule(finish, bank)
            stats.reads += 1
            stats.read_latency_sum += completion - arrival
            on_complete(completion)
        elif self._queued_writes and (self._burst or self._waiting_reads == 0):
            write_q = self._bank_write_q[bank]
            if write_q:
                self._queued_writes -= 1
                self._issue_write(bank, write_q.popleft(), now)

    def _issue_write(
        self, bank: int, write: tuple[float, LineWriteResult], start: float
    ) -> None:
        arrival, result = write
        pump_key = bank // self._banks_per_rank
        phases = max(1, -(-result.concurrent_resets // max(1, self._reset_budget)))
        resets = min(result.concurrent_resets, self._reset_budget)
        begin = arrival + self._mc_to_bank
        if start > begin:
            begin = start
        begin = self._pump_admission(pump_key, begin, resets)
        begin += self._charge_latency
        # Over-budget writes split the RESET phase only; the SET phase
        # runs once regardless.
        duration = result.latency + (phases - 1) * result.reset_latency
        finish = begin + duration
        self._pump_active[pump_key].append((finish, resets))
        until = finish + self.timing.write_to_read
        self._bank_busy[bank] = True
        self._bank_free[bank] = until
        stats = self.stats
        stats.busy_time += until - begin
        self.schedule(until, bank)
        stats.writes += 1
        stats.pump_charges += 1
        stats.write_phases += phases
        stats.reset_bits += result.reset_bits
        stats.set_bits += result.set_bits
        stats.extra_resets += result.extra_resets
        stats.extra_sets += result.extra_sets
        stats.reset_energy_j += result.reset_energy
        stats.set_energy_j += result.set_energy
        stats.write_latency_sum += duration
        if self._burst and not self._queued_writes:
            # Burst over: banks that parked their reads during the burst
            # may be idle with nothing scheduled -- wake them all.
            self._burst = False
            for key, busy in enumerate(self._bank_busy):
                if key != bank and not busy:
                    self.schedule(begin, self._banks + key)
        if self._write_waiters:
            # A queue slot freed the moment this write left the queue.
            self._write_waiters.popleft()(begin)

    def _pump_admission(self, pump_key: int, begin: float, resets: int) -> float:
        """Earliest time the rank's pump can source ``resets`` more bits.

        Completed phases are retired; while the active phases' RESET
        currents leave no headroom, the start slips to the next phase
        completion.
        """
        active = self._pump_active[pump_key]
        budget = max(1, self._reset_budget)
        while True:
            active[:] = [(end, r) for end, r in active if end > begin]
            in_use = sum(r for _, r in active)
            if in_use + resets <= budget or not active:
                return begin
            begin = max(begin, min(end for end, _ in active))
