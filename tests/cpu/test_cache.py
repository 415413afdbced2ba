"""Set-associative cache tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.cache import SetAssociativeCache


def cache(lines=64, ways=4):
    return SetAssociativeCache(lines * 64, ways, 64)


class TestBasics:
    def test_miss_then_hit(self):
        c = cache()
        assert not c.access(0, False).hit
        assert c.access(0, False).hit

    def test_distinct_lines_independent(self):
        c = cache()
        c.access(0, False)
        assert not c.access(64, False).hit

    def test_geometry(self):
        c = SetAssociativeCache(32 << 10, 4, 64)
        assert c.sets == 128
        with pytest.raises(ValueError):
            SetAssociativeCache(100, 3, 64)
        with pytest.raises(ValueError):
            SetAssociativeCache(0, 1, 64)

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            cache().access(-64, False)


class TestLru:
    def test_lru_victim_selected(self):
        c = cache(lines=4, ways=4)  # one set
        for i in range(4):
            c.access(i * 64 * c.sets, False)
        c.access(0, False)  # refresh line 0
        c.access(4 * 64 * c.sets, False)  # evicts line 1 (oldest)
        assert c.access(0, False).hit
        assert not c.access(64 * c.sets, False).hit

    def test_eviction_of_clean_line_silent(self):
        c = cache(lines=4, ways=4)
        stride = 64 * c.sets
        for i in range(4):
            c.access(i * stride, False)
        result = c.access(4 * stride, False)
        assert result.writeback_address is None

    def test_eviction_of_dirty_line_writes_back(self):
        c = cache(lines=4, ways=4)
        stride = 64 * c.sets
        c.access(0, True)
        for i in range(1, 4):
            c.access(i * stride, False)
        result = c.access(4 * stride, False)
        assert result.writeback_address == 0

    def test_dirty_bit_sticks_after_reads(self):
        c = cache(lines=4, ways=4)
        stride = 64 * c.sets
        c.access(0, True)
        c.access(0, False)  # read does not clean it
        for i in range(1, 5):
            c.access(i * stride, False)
        # Line 0 was the LRU victim at the 5th fill and was dirty.
        assert 0 in (c.access(5 * stride, False).writeback_address, 0)


class TestStatistics:
    def test_miss_rate(self):
        c = cache()
        for i in range(10):
            c.access(i * 64, False)
        for i in range(10):
            c.access(i * 64, False)
        assert c.miss_rate == pytest.approx(0.5)
        assert c.accesses == 20

    def test_contains_does_not_touch_lru(self):
        c = cache(lines=2, ways=2)
        stride = 64 * c.sets
        c.access(0, False)
        c.access(stride, False)
        assert c.contains(0)
        # `contains` must not refresh line 0: filling now evicts it.
        c.access(2 * stride, False)
        assert not c.contains(0)


class TestPropertyBased:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=31), min_size=1, max_size=200))
    def test_occupancy_never_exceeds_capacity(self, lines):
        c = cache(lines=8, ways=2)
        resident = set()
        for line in lines:
            address = line * 64
            result = c.access(address, False)
            resident.add(address)
        count = sum(
            1 for a in resident if c.contains(a)
        )
        assert count <= 16  # 8 lines * 2 ways... capacity in lines

    @settings(max_examples=30, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=63), st.booleans()),
        min_size=1, max_size=300,
    ))
    def test_writeback_only_for_previously_written_lines(self, accesses):
        c = cache(lines=8, ways=2)
        written = set()
        for line, is_write in accesses:
            address = line * 64
            result = c.access(address, is_write)
            if result.writeback_address is not None:
                assert result.writeback_address in written
            if is_write:
                written.add(address)


class StampLRU:
    """Oracle: LRU by a per-way access stamp, the victim the minimum stamp."""

    def __init__(self, size_bytes, ways, line_bytes):
        self.ways = ways
        self.line_bytes = line_bytes
        self.sets = size_bytes // (ways * line_bytes)
        self.lines = {}  # set index -> {tag: [stamp, dirty]}
        self.clock = 0
        self.hits = self.misses = 0

    def access(self, address, is_write):
        self.clock += 1
        line = address // self.line_bytes
        set_index, tag = line % self.sets, line // self.sets
        ways = self.lines.setdefault(set_index, {})
        if tag in ways:
            ways[tag] = [self.clock, ways[tag][1] or is_write]
            self.hits += 1
            return True, None
        self.misses += 1
        writeback = None
        if len(ways) >= self.ways:
            victim = min(ways, key=lambda t: ways[t][0])
            if ways.pop(victim)[1]:
                writeback = (victim * self.sets + set_index) * self.line_bytes
        ways[tag] = [self.clock, is_write]
        return False, writeback


class TestStampOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        sets=st.sampled_from([1, 2, 4, 8]),
        ways=st.integers(min_value=1, max_value=6),
        line_bytes=st.sampled_from([32, 64]),
        accesses=st.lists(
            st.tuples(st.integers(min_value=0, max_value=95), st.booleans()),
            min_size=1,
            max_size=400,
        ),
    )
    def test_matches_stamp_lru(self, sets, ways, line_bytes, accesses):
        size = sets * ways * line_bytes
        cache_, oracle = SetAssociativeCache(size, ways, line_bytes), StampLRU(
            size, ways, line_bytes
        )
        for line, is_write in accesses:
            address = line * line_bytes + line % line_bytes
            result = cache_.access(address, is_write)
            assert (result.hit, result.writeback_address) == oracle.access(
                address, is_write
            )
            assert (cache_.hits, cache_.misses) == (oracle.hits, oracle.misses)
