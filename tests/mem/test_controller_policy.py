"""Controller policy tests: burst semantics and pump admission."""

import heapq
import itertools

import numpy as np
import pytest

from repro.mem.controller import MemoryController
from repro.mem.dimm import AddressMapping
from repro.mem.line_codec import LineWriteModel
from repro.techniques import make_baseline, make_dbl, make_udrvr_pr


class Engine:
    def __init__(self):
        self.heap = []
        self.seq = itertools.count()

    def schedule(self, time, code):
        heapq.heappush(self.heap, (time, next(self.seq), code))

    def run(self):
        while self.heap:
            time, _, code = heapq.heappop(self.heap)
            self.controller.fire(code, time)


def build(config, scheme_factory=make_baseline):
    engine = Engine()
    scheme = scheme_factory(config)
    controller = engine.controller = MemoryController(config, scheme, engine.schedule)
    mapping = AddressMapping(config.memory, config.array.size)
    writer = LineWriteModel(config, scheme)
    return engine, controller, mapping, writer


def line_write(writer, config, bits, row=0):
    line_bits = config.memory.line_bytes * 8
    resets = np.zeros(line_bits, dtype=bool)
    resets[list(bits)] = True
    return writer.write(resets, np.zeros(line_bits, dtype=bool), row)


class TestWriteBurst:
    def test_burst_blocks_reads_until_drained(self, small_config):
        engine, controller, mapping, writer = build(small_config)
        loc = mapping.locate(0)
        result = line_write(writer, small_config, (7,))
        # Park a read on a *different* bank so writes stay queued.
        controller.submit_read(0.0, mapping.locate(64).bank_index, lambda t: None)
        filled = 0
        while controller.try_submit_write(0.0, loc.bank_index, result):
            filled += 1
        assert controller.stats.write_bursts == 1
        # A read to the write-target bank arrives during the burst.
        read_done = []
        controller.submit_read(0.0, loc.bank_index, read_done.append)
        engine.run()
        controller.drain(0.0)
        engine.run()
        # The read completed only after at least one burst write:
        assert read_done
        assert read_done[0] > result.latency

    def test_no_burst_below_capacity(self, small_config):
        engine, controller, mapping, writer = build(small_config)
        result = line_write(writer, small_config, (0,))
        for i in range(small_config.memory.write_queue_entries - 1):
            controller.try_submit_write(0.0, mapping.locate(64 * i).bank_index, result)
        assert controller.stats.write_bursts == 0


class TestPumpAnchors:
    """Table III's pump, as the controller enforces it per write."""

    def test_charge_latency(self, paper_config):
        base = MemoryController(paper_config, make_baseline(paper_config), None)
        ours = MemoryController(paper_config, make_udrvr_pr(paper_config), None)
        assert base._charge_latency == pytest.approx(28e-9)
        # UDRVR's extra pump stage charges 4.8% longer.
        assert ours._charge_latency == pytest.approx(28e-9 * 1.048)

    def test_reset_budget(self, paper_config):
        base = MemoryController(paper_config, make_baseline(paper_config), None)
        dbl = MemoryController(paper_config, make_dbl(paper_config), None)
        # 23 mA / 90 uA: one worst-case 64B line write per phase.
        assert base._reset_budget == 256
        assert dbl._reset_budget == 2 * 256  # D-BL doubles the pump


class TestPumpAdmission:
    def test_same_rank_heavy_writes_serialise(self, small_config):
        """Two 256-RESET writes exceed the 23 mA budget together."""
        engine, controller, mapping, writer = build(small_config, make_dbl)
        # D-BL: every active MAT resets all 8 groups; activate all 64
        # MATs -> 512 concurrent RESETs = the doubled budget exactly.
        line_bits = small_config.memory.line_bytes * 8
        resets = np.zeros(line_bits, dtype=bool)
        resets[::8] = True  # one required RESET per MAT
        heavy = writer.write(resets, np.zeros(line_bits, dtype=bool), 0)
        assert heavy.concurrent_resets == 512

        # Two heavy writes to different banks of the SAME rank.
        memory = small_config.memory
        loc_a = mapping.locate(0)
        stride = memory.line_bytes * memory.banks_per_rank  # next-rank step
        # find another address on the same rank, different bank
        for i in range(1, 64):
            loc_b = mapping.locate(64 * i)
            if (
                loc_b.rank == loc_a.rank
                and loc_b.channel == loc_a.channel
                and loc_b.bank != loc_a.bank
            ):
                break
        controller.try_submit_write(0.0, loc_a.bank_index, heavy)
        controller.try_submit_write(0.0, loc_b.bank_index, heavy)
        engine.run()
        controller.drain(0.0)
        engine.run()
        assert controller.stats.writes == 2
        # With each write consuming the whole rank budget, the bank busy
        # time cannot overlap: total busy >= 2 sequential writes.
        assert controller.stats.busy_time >= 2 * heavy.latency

    def test_light_writes_overlap_across_banks(self, small_config):
        engine, controller, mapping, writer = build(small_config)
        light = line_write(writer, small_config, (0,))
        locs = []
        loc_a = mapping.locate(0)
        for i in range(1, 64):
            loc = mapping.locate(64 * i)
            if loc.rank == loc_a.rank and loc.bank != loc_a.bank:
                locs.append(loc)
                break
        controller.try_submit_write(0.0, loc_a.bank_index, light)
        controller.try_submit_write(0.0, locs[0].bank_index, light)
        engine.run()
        controller.drain(0.0)
        engine.run()
        # Light writes fit the budget together: both banks ran in
        # parallel, so busy_time is about 2x latency but the *span*
        # (max bank_free) is about 1x.  Check via stats.writes and the
        # absence of extra phases.
        assert controller.stats.writes == 2
        assert controller.stats.write_phases == 2
