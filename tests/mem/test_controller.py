"""Memory-controller scheduling tests with a miniature event engine."""

import heapq
import itertools

import numpy as np
import pytest

from repro.mem.controller import MemoryController
from repro.mem.dimm import AddressMapping
from repro.mem.line_codec import LineWriteModel
from repro.techniques import make_baseline


class Engine:
    """Minimal heap the controller schedules its bank events on."""

    def __init__(self):
        self.heap = []
        self.seq = itertools.count()

    def schedule(self, time, code):
        heapq.heappush(self.heap, (time, next(self.seq), code))

    def run(self):
        while self.heap:
            time, _, code = heapq.heappop(self.heap)
            self.controller.fire(code, time)


@pytest.fixture()
def setup(small_config):
    engine = Engine()
    scheme = make_baseline(small_config)
    controller = engine.controller = MemoryController(
        small_config, scheme, engine.schedule
    )
    mapping = AddressMapping(small_config.memory, small_config.array.size)
    writer = LineWriteModel(small_config, scheme)
    return engine, controller, mapping, writer


def make_write(writer, small_config, row=0, bits=(7,)):
    line_bits = small_config.memory.line_bytes * 8
    resets = np.zeros(line_bits, dtype=bool)
    resets[list(bits)] = True
    return writer.write(resets, np.zeros(line_bits, dtype=bool), row)


class TestReads:
    def test_unloaded_read_latency(self, setup):
        engine, controller, mapping, _ = setup
        done = []
        controller.submit_read(0.0, mapping.locate(0).bank_index, done.append)
        engine.run()
        assert len(done) == 1
        assert done[0] == pytest.approx(controller.timing.read_latency, rel=1e-6)

    def test_same_bank_reads_serialise(self, setup):
        engine, controller, mapping, _ = setup
        loc = mapping.locate(0)
        done = []
        controller.submit_read(0.0, loc.bank_index, done.append)
        controller.submit_read(0.0, loc.bank_index, done.append)
        engine.run()
        assert done[1] - done[0] == pytest.approx(
            controller.timing.read_service, rel=1e-6
        )

    def test_different_banks_overlap(self, setup, small_config):
        engine, controller, mapping, _ = setup
        done = []
        controller.submit_read(0.0, mapping.locate(0).bank_index, done.append)
        controller.submit_read(0.0, mapping.locate(64).bank_index, done.append)
        engine.run()
        assert done[0] == pytest.approx(done[1], rel=1e-6)

    def test_read_latency_stat(self, setup):
        engine, controller, mapping, _ = setup
        controller.submit_read(0.0, mapping.locate(0).bank_index, lambda t: None)
        engine.run()
        assert controller.stats.reads == 1
        assert controller.stats.read_latency_sum > 0


class TestWrites:
    def test_write_drains_when_no_reads(self, setup, small_config):
        engine, controller, mapping, writer = setup
        result = make_write(writer, small_config)
        assert controller.try_submit_write(0.0, mapping.locate(0).bank_index, result)
        engine.run()
        controller.drain(0.0)
        engine.run()
        assert controller.stats.writes == 1
        assert controller.write_queue_depth == 0

    def test_write_blocks_subsequent_read_on_bank(self, setup, small_config):
        engine, controller, mapping, writer = setup
        loc = mapping.locate(0)
        result = make_write(writer, small_config)
        controller.try_submit_write(0.0, loc.bank_index, result)
        done = []
        # The write was already dispatched (no reads were waiting);
        # a read arriving right after waits for the bank.
        controller.submit_read(1e-9, loc.bank_index, done.append)
        engine.run()
        assert done[0] > result.latency

    def test_queue_capacity_backpressure(self, setup, small_config):
        engine, controller, mapping, writer = setup
        result = make_write(writer, small_config)
        capacity = small_config.memory.write_queue_entries
        # Park a read far in the future on every bank? Simpler: flood the
        # queue faster than banks drain by submitting at time 0.
        accepted = 0
        for i in range(capacity * 3):
            bank = mapping.locate(64 * i).bank_index
            if controller.try_submit_write(0.0, bank, result):
                accepted += 1
        assert accepted <= capacity * 3
        assert controller.write_queue_depth <= capacity

    def test_burst_counted_when_queue_fills(self, setup, small_config):
        engine, controller, mapping, writer = setup
        result = make_write(writer, small_config)
        # Reads waiting everywhere keep writes queued.
        for i in range(64):
            bank = mapping.locate(64 * i).bank_index
            controller.submit_read(0.0, bank, lambda t: None)
        filled = 0
        while controller.try_submit_write(0.0, mapping.locate(0).bank_index, result):
            filled += 1
        assert controller.stats.write_bursts >= 1
        engine.run()
        controller.drain(1.0)
        engine.run()
        assert controller.stats.writes == filled

    def test_write_stats_accumulate(self, setup, small_config):
        engine, controller, mapping, writer = setup
        result = make_write(writer, small_config, bits=(7, 15))
        controller.try_submit_write(0.0, mapping.locate(0).bank_index, result)
        engine.run()
        controller.drain(0.0)
        engine.run()
        stats = controller.stats
        assert stats.reset_bits == 2
        assert stats.pump_charges == 1
        assert stats.reset_energy_j > 0

    def test_notify_write_space(self, setup, small_config):
        engine, controller, mapping, writer = setup
        result = make_write(writer, small_config)
        woken = []
        # Fill the queue while reads block draining.
        for i in range(64):
            bank = mapping.locate(64 * i).bank_index
            controller.submit_read(0.0, bank, lambda t: None)
        while controller.try_submit_write(0.0, mapping.locate(0).bank_index, result):
            pass
        controller.notify_write_space(woken.append)
        engine.run()
        controller.drain(1.0)
        engine.run()
        assert woken  # the waiter fired once a slot freed
