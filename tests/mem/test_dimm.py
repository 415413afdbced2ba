"""Address mapping and DIMM geometry tests."""

import math

import numpy as np
import pytest

from repro.mem.dimm import AddressMapping
from repro.mem.timing import MemoryTiming


class TestAddressMapping:
    @pytest.fixture(scope="class")
    def mapping(self, paper_config):
        return AddressMapping(paper_config.memory, paper_config.array.size)

    def test_coordinates_in_range(self, mapping, paper_config):
        memory = paper_config.memory
        rng = np.random.default_rng(0)
        for _ in range(200):
            address = int(rng.integers(0, memory.capacity_bytes)) & ~63
            loc = mapping.locate(address)
            assert 0 <= loc.channel < memory.channels
            assert 0 <= loc.rank < memory.ranks_per_channel
            assert 0 <= loc.bank < memory.banks_per_rank
            assert 0 <= loc.row < paper_config.array.size

    def test_deterministic(self, mapping):
        assert mapping.locate(4096) == mapping.locate(4096)

    def test_sequential_lines_interleave_banks(self, mapping, paper_config):
        banks = {
            mapping.locate(i * 64).bank
            for i in range(paper_config.memory.banks_per_rank)
        }
        assert len(banks) == paper_config.memory.banks_per_rank

    def test_rows_roughly_uniform(self, mapping, paper_config):
        rows = [mapping.locate(i * 64 * 8).row for i in range(4000)]
        counts = np.bincount(rows, minlength=paper_config.array.size)
        # No row should dominate under the mixing hash.
        assert counts.max() < 10 * max(1, counts.mean())

    def test_scheduling_places_hot_lines_low(self, paper_config):
        mapping = AddressMapping(
            paper_config.memory, paper_config.array.size, scheduling=True
        )
        hot = mapping.locate(0, hotness_rank=0.0)
        cold = mapping.locate(0, hotness_rank=0.99)
        assert hot.row == 0
        assert cold.row > paper_config.array.size // 2

    def test_negative_address_rejected(self, mapping):
        with pytest.raises(ValueError):
            mapping.locate(-64)


class TestTiming:
    def test_composite_latencies(self, paper_config):
        timing = MemoryTiming.from_params(paper_config.memory, paper_config.cpu)
        assert timing.read_service == pytest.approx(28e-9)  # tRCD + tCL
        assert timing.mc_to_bank == pytest.approx(64 / 3.2e9)
        assert timing.read_latency > timing.read_service
        # 64B over a 64-bit DDR-1066 channel: 8 beats at ~0.47 ns.
        assert timing.bus_transfer == pytest.approx(
            8 / (1066e6 * 2), rel=1e-6
        )


def splitmix64(value):
    """The splitmix64 finaliser on Python ints."""
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9 % (1 << 64)
    value = (value ^ (value >> 27)) * 0x94D049BB133111EB % (1 << 64)
    return value ^ (value >> 31)


def oracle_place(memory, rows, address, hotness=None):
    """``(bank_index, row)`` of one address, in Python ints."""
    line = address // memory.line_bytes
    channel = line % memory.channels
    line //= memory.channels
    bank = line % memory.banks_per_rank
    line //= memory.banks_per_rank
    rank = line % memory.ranks_per_channel
    line //= memory.ranks_per_channel
    index = (channel * memory.ranks_per_channel + rank) * memory.banks_per_rank + bank
    row = int(math.floor(hotness * rows)) if hotness is not None else (
        splitmix64(line) % rows
    )
    return index, row


class TestLocateMany:
    @pytest.fixture(scope="class")
    def addresses(self, paper_config):
        rng = np.random.default_rng(1)
        capacity = paper_config.memory.capacity_bytes
        return np.concatenate(
            [
                rng.integers(0, capacity, 3000),
                rng.integers(0, 1 << 62, 3000),  # beyond any DIMM, as traces use
                [0, 63, 64, (1 << 63) - 1],
            ]
        )

    def test_matches_python_formulas(self, paper_config, addresses):
        memory, rows = paper_config.memory, paper_config.array.size
        banks, placed_rows = AddressMapping(memory, rows).locate_many(addresses)
        expected = [oracle_place(memory, rows, a) for a in addresses.tolist()]
        assert list(zip(banks.tolist(), placed_rows.tolist())) == expected
        assert banks.dtype == placed_rows.dtype == np.int64

    def test_sch_matches_python_formulas(self, paper_config, addresses):
        memory, rows = paper_config.memory, paper_config.array.size
        hotness = np.random.default_rng(2).random(addresses.size)
        hotness[:3] = [0.0, 0.5, np.nextafter(1.0, 0.0)]
        mapping = AddressMapping(memory, rows, scheduling=True)
        banks, placed_rows = mapping.locate_many(addresses, hotness)
        expected = [
            oracle_place(memory, rows, a, h)
            for a, h in zip(addresses.tolist(), hotness.tolist())
        ]
        assert list(zip(banks.tolist(), placed_rows.tolist())) == expected
        # Without SCH the hotness is ignored.
        plain = AddressMapping(memory, rows).locate_many(addresses, hotness)
        assert np.array_equal(plain[1], AddressMapping(memory, rows).locate_many(
            addresses
        )[1])

    def test_scalar_locate_agrees(self, paper_config, addresses):
        memory, rows = paper_config.memory, paper_config.array.size
        mapping = AddressMapping(memory, rows)
        banks, placed_rows = mapping.locate_many(addresses[:200])
        for address, bank, row in zip(addresses[:200].tolist(), banks, placed_rows):
            loc = mapping.locate(address)
            assert (loc.bank_index, loc.row) == (bank, row)
            rank_index = loc.channel * memory.ranks_per_channel + loc.rank
            assert loc.bank_index == rank_index * memory.banks_per_rank + loc.bank

    def test_rejects_negative_addresses(self, paper_config):
        mapping = AddressMapping(paper_config.memory, paper_config.array.size)
        with pytest.raises(ValueError, match="address"):
            mapping.locate_many(np.array([0, 64, -64]))

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5, float("nan")])
    def test_rejects_out_of_range_hotness(self, paper_config, bad):
        mapping = AddressMapping(
            paper_config.memory, paper_config.array.size, scheduling=True
        )
        with pytest.raises(ValueError, match="hotness"):
            mapping.locate_many(np.array([0, 64]), np.array([0.2, bad]))
        with pytest.raises(ValueError, match="hotness"):
            mapping.locate(0, hotness_rank=bad)
