"""Naive reference of the system simulator's replay (an oracle).

It replays a recorded :class:`~repro.cpu.frontend.FrontEnd` under the
policy :mod:`repro.cpu.system` and :mod:`repro.mem.controller`
document, written for plain reading rather than speed:

* one event at a time off a heap of ``(time, push order, kind, what)``
  — every L3-hit step is its own event;
* banks are ``(channel, rank, bank)`` tuples and ranks ``(channel,
  rank)``, each with a dict of deques for its waiting reads and writes;
* each access is placed with :meth:`AddressMapping.locate`, each victim
  written with :meth:`LineWriteModel.write`, and each maintenance write
  drawn when its demand write happens.

It shares no code with the simulator's event loop or controller, so the
two agreeing field for field, float for float, checks the fast replay.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque

import numpy as np

from repro.cpu.frontend import L3_HIT, WRITE, WRITEBACK
from repro.mem.controller import ControllerStats
from repro.mem.dimm import AddressMapping
from repro.mem.timing import MemoryTiming
from repro.workloads.datapatterns import WritePatternGenerator
from repro.workloads.synthetic import SyntheticStream


class ReferenceSimulator:
    """One (front end, scheme) replay; :meth:`run` returns the outcome."""

    def __init__(self, config, scheme, frontend, write_model, seed):
        self.config = config
        self.scheme = scheme
        self.frontend = frontend
        self.write_model = write_model
        self.timing = MemoryTiming.from_params(config.memory, config.cpu)
        self.mapping = AddressMapping(
            config.memory, config.array.size, scheduling=scheme.scheduling
        )
        memory = config.memory
        self.banks = [
            (channel, rank, bank)
            for channel in range(memory.channels)
            for rank in range(memory.ranks_per_channel)
            for bank in range(memory.banks_per_rank)
        ]
        self.busy = {key: False for key in self.banks}
        self.free_at = {key: 0.0 for key in self.banks}
        self.reads = {key: deque() for key in self.banks}  # (arrival, core)
        self.writes = {key: deque() for key in self.banks}  # (arrival, result)
        self.queued_writes = 0
        self.waiting_reads = 0
        self.burst = False
        self.pumps = {key[:2]: [] for key in self.banks}  # [(end, resets)]
        self.write_waiters = deque()  # (core, bank, result, read_blocked)
        self.stats = ControllerStats()
        self.budget = int(
            config.pump.max_concurrent_writes
            * scheme.overheads.write_current_factor
        )
        self.charge = (
            config.pump.t_charge * scheme.overheads.pump_charge_latency_factor
        )
        self.heap = []
        self.order = itertools.count()
        cores = frontend.cores
        self.time = [0.0] * len(cores)
        self.stall = [0.0] * len(cores)
        self.issued = [0.0] * len(cores)
        self.next_access = [0] * len(cores)
        self.next_victim = [0] * len(cores)
        self.rng = np.random.default_rng(seed + 991)
        self.patterns = WritePatternGenerator(
            frontend.benchmark.patterns[0],
            line_bits=frontend.line_bits,
            seed=seed + 2000,
        )

    # -- placement ------------------------------------------------------------

    def locate(self, core, address):
        hotness = None
        if self.scheme.scheduling:
            params = self.frontend.benchmark.streams[core]
            hotness = SyntheticStream(params).hotness_rank(address)
        where = self.mapping.locate(address, hotness)
        return (where.channel, where.rank, where.bank), where.row

    # -- events ---------------------------------------------------------------

    def push(self, time, kind, what):
        heapq.heappush(self.heap, (time, next(self.order), kind, what))

    def run_heap(self):
        last = 0.0
        while self.heap:
            time, _, kind, what = heapq.heappop(self.heap)
            last = max(last, time)
            if kind == "step":
                self.core_step(what)
            elif kind == "free":
                self.busy[what] = False
                self.dispatch(what, time)
            else:  # "wake"
                self.dispatch(what, time)
        return last

    # -- controller -----------------------------------------------------------

    def submit_read(self, now, bank, core):
        self.reads[bank].append((now, core))
        self.waiting_reads += 1
        self.dispatch(bank, now + self.timing.mc_to_bank)

    def try_submit_write(self, now, bank, result):
        capacity = self.config.memory.write_queue_entries
        if self.queued_writes >= capacity:
            return False
        self.writes[bank].append((now, result))
        self.queued_writes += 1
        if self.queued_writes >= capacity:
            self.burst = True
            self.stats.write_bursts += 1
            for key in self.banks:
                self.dispatch(key, now)
        elif self.waiting_reads == 0:
            self.dispatch(bank, now + self.timing.mc_to_bank)
        return True

    def drain(self, now):
        self.burst = self.queued_writes > 0
        for key in self.banks:
            self.dispatch(key, now)

    def dispatch(self, bank, now):
        if self.busy[bank]:
            return
        start = max(now, self.free_at[bank])
        if self.reads[bank] and not self.burst:
            self.issue_read(bank, start)
        elif self.queued_writes and (self.burst or self.waiting_reads == 0):
            if self.writes[bank]:
                self.issue_write(bank, start)

    def occupy(self, bank, begin, until):
        self.busy[bank] = True
        self.free_at[bank] = until
        self.stats.busy_time += until - begin
        self.push(until, "free", bank)

    def issue_read(self, bank, start):
        arrival, core = self.reads[bank].popleft()
        self.waiting_reads -= 1
        begin = max(start, arrival + self.timing.mc_to_bank)
        finish_bank = begin + self.timing.read_service
        completion = finish_bank + self.timing.bus_transfer
        self.occupy(bank, begin, finish_bank)
        self.stats.reads += 1
        self.stats.read_latency_sum += completion - arrival
        self.read_complete(core, completion)

    def issue_write(self, bank, start):
        arrival, result = self.writes[bank].popleft()
        self.queued_writes -= 1
        budget = max(1, self.budget)
        resets = min(result.concurrent_resets, self.budget)
        phases = max(1, -(-result.concurrent_resets // budget))
        begin = max(start, arrival + self.timing.mc_to_bank)
        # The rank's pump admits the phase once the active phases leave
        # room for its RESETs (or none is active).
        active = self.pumps[bank[:2]]
        while True:
            active[:] = [(end, r) for end, r in active if end > begin]
            if sum(r for _, r in active) + resets <= budget or not active:
                break
            begin = max(begin, min(end for end, _ in active))
        begin += self.charge
        duration = result.latency + (phases - 1) * result.reset_latency
        finish = begin + duration
        active.append((finish, resets))
        self.occupy(bank, begin, finish + self.timing.write_to_read)
        stats = self.stats
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
        if self.burst and self.queued_writes == 0:
            self.burst = False
            for key in self.banks:
                if key != bank and not self.busy[key]:
                    self.push(begin, "wake", key)
        if self.write_waiters:
            self.attempt_write(*self.write_waiters.popleft(), begin)

    # -- cores ----------------------------------------------------------------

    def core_step(self, core):
        records = self.frontend.cores[core]
        index = self.next_access[core]
        self.next_access[core] += 1
        cpu = self.config.cpu
        self.time[core] += int(records.gaps[index]) * cpu.base_cpi * cpu.cycle_s
        kind = int(records.kinds[index])
        if kind & L3_HIT:
            if not kind & WRITE:
                hit = cpu.l3_hit_cycles * cpu.cycle_s
                self.time[core] += hit
                self.stall[core] += hit
            self.schedule_next(core)
            return
        blocked = not kind & WRITE
        if blocked:
            self.issued[core] = self.time[core]
            bank, _ = self.locate(core, int(records.addresses[index]))
            self.submit_read(self.time[core], bank, core)
        if kind & WRITEBACK:
            self.write_back(core, blocked)
        elif not blocked:
            self.schedule_next(core)

    def read_complete(self, core, completion):
        latency = max(0.0, completion - self.issued[core])
        exposed = latency / max(1.0, min(4.0, float(self.config.cpu.mshrs_per_core)))
        self.time[core] = max(self.time[core], self.issued[core] + exposed)
        self.stall[core] += exposed
        self.schedule_next(core)

    def write_back(self, core, read_blocked):
        records = self.frontend.cores[core]
        victim = self.next_victim[core]
        self.next_victim[core] += 1
        bank, row = self.locate(core, int(records.victims[victim]))
        resets, sets = (
            np.unpackbits(masks[victim], bitorder="little").astype(bool)
            for masks in (records.resets, records.sets)
        )
        result = self.write_model.write(resets, sets, row)
        now = self.time[core]
        if self.rng.random() < self.scheme.maintenance_write_rate:
            extra_row = int(self.rng.integers(self.config.array.size))
            extra = self.write_model.write(*self.patterns.masks(), extra_row)
            self.try_submit_write(now, bank, extra)
        self.attempt_write(core, bank, result, read_blocked, now)

    def attempt_write(self, core, bank, result, read_blocked, time):
        if time > self.time[core]:
            self.stall[core] += time - self.time[core]
            self.time[core] = time
        if self.try_submit_write(self.time[core], bank, result):
            if not read_blocked:
                self.schedule_next(core)
        else:
            self.write_waiters.append((core, bank, result, read_blocked))

    def schedule_next(self, core):
        if self.next_access[core] < self.frontend.accesses_per_core:
            self.push(self.time[core], "step", core)

    # -- driving --------------------------------------------------------------

    def unfinished(self):
        return any(
            done < self.frontend.accesses_per_core for done in self.next_access
        )

    def run(self):
        """``(stats, [(time_s, stall_s, instructions) per core])``."""
        for core in range(len(self.frontend.cores)):
            self.schedule_next(core)
        last = self.run_heap()
        # Cores parked on a full write queue with nothing left on the
        # heap: force the queue out until every access has retired.
        while self.unfinished() or self.queued_writes:
            self.drain(last)
            if not self.heap:
                break
            last = max(last, self.run_heap())
        if self.unfinished():
            raise RuntimeError("reference simulation deadlocked")
        cores = [
            (self.time[c], self.stall[c], int(records.gaps.sum()))
            for c, records in enumerate(self.frontend.cores)
        ]
        return self.stats, cores
