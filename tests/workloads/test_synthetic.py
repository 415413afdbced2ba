"""Synthetic stream generation tests."""

import math

import numpy as np
import pytest

from repro.workloads.synthetic import StreamParams, SyntheticStream
from repro.workloads.trace import MemoryAccess, Trace


@pytest.fixture()
def params():
    return StreamParams(
        rpki=4.0, wpki=2.0, working_set_lines=4096, zipf_alpha=1.0
    )


class TestRates:
    def test_rpki_wpki_converge(self, params):
        stream = SyntheticStream(params, seed=1)
        trace = stream.take(8000)
        assert trace.rpki() == pytest.approx(4.0, rel=0.15)
        assert trace.wpki() == pytest.approx(2.0, rel=0.15)

    def test_addresses_line_aligned_and_in_region(self, params):
        stream = SyntheticStream(params, seed=2)
        for _ in range(500):
            access = stream.next_access()
            assert access.address % 64 == 0
            line = access.address // 64
            assert 0 <= line < params.working_set_lines

    def test_address_base_offsets_region(self):
        params = StreamParams(
            rpki=1.0, wpki=1.0, working_set_lines=256, address_base=1 << 30
        )
        stream = SyntheticStream(params, seed=0)
        assert all(
            stream.next_access().address >= (1 << 30) for _ in range(100)
        )


class TestLocality:
    def test_zipf_skew_concentrates_traffic(self):
        flat = SyntheticStream(
            StreamParams(rpki=2, wpki=1, working_set_lines=4096, zipf_alpha=0.0,
                         run_length=1.0),
            seed=3,
        )
        skewed = SyntheticStream(
            StreamParams(rpki=2, wpki=1, working_set_lines=4096, zipf_alpha=1.4,
                         run_length=1.0),
            seed=3,
        )
        unique_flat = len({flat.next_access().address for _ in range(3000)})
        unique_skewed = len({skewed.next_access().address for _ in range(3000)})
        assert unique_skewed < 0.6 * unique_flat

    def test_run_length_creates_sequential_lines(self):
        stream = SyntheticStream(
            StreamParams(rpki=2, wpki=1, working_set_lines=4096, run_length=16.0),
            seed=4,
        )
        addresses = [stream.next_access().address for _ in range(2000)]
        sequential = sum(
            1 for a, b in zip(addresses, addresses[1:]) if b - a == 64
        )
        assert sequential > 0.5 * len(addresses)

    def test_hotness_rank_identifies_hot_lines(self, params):
        stream = SyntheticStream(params, seed=5)
        counts: dict[int, int] = {}
        for _ in range(5000):
            a = stream.next_access().address
            counts[a] = counts.get(a, 0) + 1
        hottest = max(counts, key=counts.get)
        coldest = min(counts, key=counts.get)
        assert stream.hotness_rank(hottest) < stream.hotness_rank(coldest)

    def test_hotness_rank_in_unit_interval(self, params):
        stream = SyntheticStream(params, seed=6)
        for _ in range(100):
            rank = stream.hotness_rank(stream.next_access().address)
            assert 0.0 <= rank < 1.0


class TestValidation:
    def test_param_validation(self):
        with pytest.raises(ValueError):
            StreamParams(rpki=0.0, wpki=0.0)
        with pytest.raises(ValueError):
            StreamParams(rpki=-1.0, wpki=1.0)
        with pytest.raises(ValueError):
            StreamParams(rpki=1.0, wpki=1.0, working_set_lines=0)
        with pytest.raises(ValueError):
            StreamParams(rpki=1.0, wpki=1.0, run_length=0.5)

    def test_trace_helpers(self):
        trace = Trace(
            [
                MemoryAccess(100, False, 0),
                MemoryAccess(100, True, 64),
            ]
        )
        assert len(trace) == 2
        assert trace.reads == 1
        assert trace.writes == 1
        assert trace.instructions == 200

    def test_access_validation(self):
        with pytest.raises(ValueError):
            MemoryAccess(-1, False, 0)
        with pytest.raises(ValueError):
            MemoryAccess(0, False, -64)

    def test_take_validation(self, params):
        with pytest.raises(ValueError):
            SyntheticStream(params).take(-1)


class TestHotnessRanksOracle:
    @pytest.mark.parametrize("lines", [1024, 1000, 27 << 14, (1 << 33) + 2])
    def test_matches_python_int_formula(self, lines):
        params = StreamParams(
            rpki=1.0, wpki=1.0, working_set_lines=lines, address_base=3 << 40
        )
        stream = SyntheticStream(params, seed=2)
        addresses = [stream.next_access().address for _ in range(500)]
        addresses += [params.address_base, params.address_base - 64]
        # The odd multiplier's inverse modulo the working set, per line.
        mult = SyntheticStream._PERM_MULTIPLIER
        inverse = pow(mult, -1, lines) if math.gcd(mult, lines) == 1 else 1
        expected = [
            float((a - params.address_base) // 64 % lines * inverse % lines) / lines
            for a in addresses
        ]
        assert stream.hotness_ranks(np.array(addresses)).tolist() == expected
        assert [stream.hotness_rank(a) for a in addresses[:20]] == expected[:20]
