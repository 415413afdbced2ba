"""Block recording of the front end makes the per-access draws, in order.

``SyntheticStream.draw``, ``SetAssociativeCache.access_many`` and
``WritePatternGenerator.masks_many`` replace one call per access (or per
write) with one call per block.  These tests pin the NumPy draw-order
facts the blocks rely on, check each block method and ``FrontEnd.record``
against the per-access oracle in :mod:`tests.cpu.scalar_frontend`, and
pin every record array of three benchmarks at the CLI's ``--quick``
sizing.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.cpu.cache import SetAssociativeCache
from repro.cpu.frontend import FrontEnd
from repro.workloads import get_benchmark
from repro.workloads.benchmarks import BenchmarkSpec, scale_benchmark
from repro.workloads.datapatterns import PatternParams, WritePatternGenerator
from repro.workloads.synthetic import StreamParams, SyntheticStream

from .scalar_frontend import ScalarPatterns, ScalarStream, scalar_record
from .test_cache import StampLRU

FIELDS = ("gaps", "addresses", "kinds", "victims", "resets", "sets")

stream_params = st.builds(
    StreamParams,
    rpki=st.floats(min_value=0.0, max_value=30.0),
    wpki=st.floats(min_value=0.1, max_value=30.0),
    working_set_lines=st.sampled_from([1, 2, 3, 7, 64, 1000, 4096]),
    zipf_alpha=st.sampled_from([0.0, 0.9, 1.0, 1.35]),
    run_length=st.sampled_from([1.0, 2.0, 3.7]),
    address_base=st.sampled_from([0, 1 << 40]),
)
pattern_params = st.builds(
    PatternParams,
    changed_fraction=st.floats(min_value=0.01, max_value=1.0),
    word_bits=st.sampled_from([8, 16, 32, 64]),
    in_word_change=st.floats(min_value=0.05, max_value=1.0),
)
#: Block boundaries: where a sequence of calls is cut into blocks.
cuts = st.lists(st.integers(min_value=0, max_value=300), max_size=4)


def blocks(total: int, cut_points: list[int]) -> list[int]:
    """Block sizes that cut ``total`` items at ``cut_points``."""
    bounds = sorted({0, total, *(min(c, total) for c in cut_points)})
    return [hi - lo for lo, hi in zip(bounds, bounds[1:])]


class TestNumpyDrawOrder:
    """The Generator facts that let blocks replace scalar calls."""

    @pytest.mark.parametrize("seed", [0, 1, 29])
    def test_block_of_k_equals_k_scalar_calls(self, seed):
        block = np.random.default_rng(seed).random(257)
        scalar = np.random.default_rng(seed)
        assert block.tolist() == [scalar.random() for _ in range(257)]

    @pytest.mark.parametrize("d, w", [(1, 32), (5, 8), (16, 32), (3, 512)])
    def test_2d_block_equals_successive_rows(self, d, w):
        block = np.random.default_rng(7).random((d, w))
        rows = np.random.default_rng(7)
        assert np.array_equal(block, np.stack([rows.random(w) for _ in range(d)]))

    def test_doubles_leave_buffered_bounded_draws_alone(self):
        """A choice's buffered 32-bit half survives any split of the doubles."""

        def sequence(split: bool) -> list:
            rng = np.random.default_rng(11)
            out = []
            for _ in range(20):
                out += rng.choice(16, size=3, replace=False).tolist()
                out += [rng.geometric(0.2)]
                if split:
                    out += rng.random(40).tolist() + rng.random(24).tolist()
                else:
                    out += rng.random(64).tolist()
            return out

        assert sequence(True) == sequence(False)


class TestStreamDraw:
    @settings(max_examples=40, deadline=None)
    @given(
        params=stream_params,
        seed=st.integers(min_value=0, max_value=2**16),
        count=st.integers(min_value=0, max_value=300),
        cut_points=cuts,
    )
    def test_blocks_equal_scalar_oracle(self, params, seed, count, cut_points):
        stream = SyntheticStream(params, seed=seed)
        drawn = [stream.draw(size) for size in blocks(count, cut_points)]
        gaps, addresses, writes = (
            np.concatenate([d[i] for d in drawn]) if drawn else np.array([])
            for i in range(3)
        )
        oracle = ScalarStream(params, seed=seed)
        expected = [oracle.scalar_access() for _ in range(count)]
        assert gaps.tolist() == [gap for gap, _, _ in expected]
        assert addresses.tolist() == [address for _, address, _ in expected]
        assert writes.tolist() == [write for _, _, write in expected]

    def test_next_access_is_one_row_of_draw(self):
        params = StreamParams(rpki=3.0, wpki=2.0, working_set_lines=512)
        one, block = SyntheticStream(params, seed=4), SyntheticStream(params, seed=4)
        gaps, addresses, writes = block.draw(200)
        accesses = [one.next_access() for _ in range(200)]
        assert [a.gap_instructions for a in accesses] == gaps.tolist()
        assert [a.address for a in accesses] == addresses.tolist()
        assert [a.is_write for a in accesses] == writes.tolist()

    def test_dtypes_and_empty_block(self):
        stream = SyntheticStream(StreamParams(rpki=1.0, wpki=1.0), seed=0)
        gaps, addresses, writes = stream.draw(0)
        assert (gaps.dtype, addresses.dtype, writes.dtype) == (
            np.int64,
            np.int64,
            np.bool_,
        )
        assert gaps.shape == addresses.shape == writes.shape == (0,)
        with pytest.raises(ValueError, match="count"):
            stream.draw(-1)


class TestAccessMany:
    @settings(max_examples=40, deadline=None)
    @given(
        sets=st.sampled_from([1, 2, 4, 8]),
        ways=st.integers(min_value=1, max_value=6),
        accesses=st.lists(
            st.tuples(st.integers(min_value=0, max_value=95), st.booleans()),
            max_size=300,
        ),
        cut_points=cuts,
    )
    def test_blocks_equal_stamp_oracle(self, sets, ways, accesses, cut_points):
        cache = SetAssociativeCache(sets * ways * 64, ways, 64)
        oracle = StampLRU(sets * ways * 64, ways, 64)
        hits, victims, start = [], [], 0
        for size in blocks(len(accesses), cut_points):
            block = accesses[start : start + size]
            start += size
            h, v = cache.access_many(
                [line * 64 for line, _ in block], [write for _, write in block]
            )
            assert h.dtype == np.bool_ and v.dtype == np.int64
            hits += h.tolist()
            victims += v.tolist()
        expected = [oracle.access(line * 64, write) for line, write in accesses]
        assert hits == [hit for hit, _ in expected]
        assert victims == [-1 if v is None else v for _, v in expected]
        assert (cache.hits, cache.misses) == (oracle.hits, oracle.misses)

    def test_access_is_one_row_of_access_many(self):
        rng = np.random.default_rng(3)
        lines = rng.integers(0, 64, size=500) * 64
        writes = rng.random(500) < 0.4
        one, block = (SetAssociativeCache(16 * 64, 2, 64) for _ in range(2))
        results = [one.access(int(a), bool(w)) for a, w in zip(lines, writes)]
        hits, victims = block.access_many(lines, writes)
        assert [r.hit for r in results] == hits.tolist()
        assert [
            -1 if r.writeback_address is None else r.writeback_address
            for r in results
        ] == victims.tolist()
        assert (one.hits, one.misses) == (block.hits, block.misses)

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError, match="address"):
            SetAssociativeCache(16 * 64, 2, 64).access_many([0, -64], [False, True])


class TestMasksMany:
    @settings(max_examples=30, deadline=None)
    @given(
        params=pattern_params,
        seed=st.integers(min_value=0, max_value=2**16),
        count=st.integers(min_value=0, max_value=120),
        cut_points=cuts,
    )
    def test_blocks_equal_scalar_oracle(self, params, seed, count, cut_points):
        generator = WritePatternGenerator(params, seed=seed)
        drawn = [generator.masks_many(size) for size in blocks(count, cut_points)]
        oracle = ScalarPatterns(params, seed=seed)
        expected = [oracle.scalar_masks() for _ in range(count)]
        for side in (0, 1):
            rows = np.concatenate([d[side] for d in drawn]) if drawn else []
            assert np.array_equal(
                np.reshape(rows, (count, 512)),
                np.reshape([pair[side] for pair in expected], (count, 512)),
            )

    def test_masks_is_one_row_of_masks_many(self):
        one = WritePatternGenerator(PatternParams(), seed=5)
        block = WritePatternGenerator(PatternParams(), seed=5)
        resets, sets = block.masks_many(100)
        assert resets.shape == sets.shape == (100, 512)
        assert resets.dtype == sets.dtype == np.bool_
        for row in range(100):
            r, s = one.masks()
            assert np.array_equal(r, resets[row]) and np.array_equal(s, sets[row])


class TestRecordOracle:
    @settings(max_examples=25, deadline=None)
    @given(
        cores=st.lists(st.tuples(stream_params, pattern_params), min_size=1, max_size=2),
        seed=st.integers(min_value=0, max_value=2**16),
        accesses=st.integers(min_value=0, max_value=400),
        warmup=st.sampled_from([0, 150]),
    )
    def test_record_equals_scalar_loop(self, paper_config, cores, seed, accesses, warmup):
        # 64 KB of 16-way L3: 64 sets, so 4096-line working sets evict.
        config = paper_config.with_cpu(l3_bytes_per_core=64 << 10)
        bench = BenchmarkSpec(
            name="drawn",
            description="hypothesis",
            streams=tuple(s for s, _ in cores),
            patterns=tuple(p for _, p in cores),
        )
        frontend = FrontEnd.record(config, bench, accesses, seed, warmup)
        expected, l3_accesses, l3_misses = scalar_record(
            config, bench, accesses, seed, warmup
        )
        assert (frontend.l3_accesses, frontend.l3_misses) == (l3_accesses, l3_misses)
        for core, oracle in zip(frontend.cores, expected):
            for name in FIELDS:
                array = getattr(core, name)
                assert array.dtype == oracle[name].dtype, name
                assert np.array_equal(array, oracle[name]), name


#: sha256 per record field (over every core in order, with its dtype and
#: shape) at the CLI's ``--quick`` sizing: scale 256, 2500 accesses per
#: core after 4000 warm-up accesses, seed 3.  Recorded with the
#: per-access recording loop the block methods replaced.
QUICK_DIGESTS = {
    "mcf_m": {
        "gaps": "e381124c442fc4a091e62e345701b4999a63904216b142a4466022c85eac7414",
        "addresses": "00a58fc2b0bd5b8ecd9a11907a27ec3bf6eb41e9983181d3db204048f8d1f48a",
        "kinds": "33c4b576004e56353a6d022409e22d4eb5e5fefa786166f2ab12d2e9d524f37e",
        "victims": "8fdb27cfc54cf1070b5a59748b186ff033325bf45bc133e0c507747ec53f2b56",
        "resets": "6702301c649595844c684e4088aad809c3ed1c23bd8fe687d1937e627734de2e",
        "sets": "d32b5efbc1cc58f016f095996053cff79d4e7fc66ec7c8fd1c72938a81e58bce",
    },
    "tig_m": {
        "gaps": "e42ed0e27b0b196403ab5835ccee8b87f35aefa6517c4aa727d7ea67ab9f6cff",
        "addresses": "5bfbae9a80336cbed4d0202dbb1ebe2491aea14ebce38bbf22638bb4f3d770f0",
        "kinds": "87f22290f94cdb168e4b81a3d667395bece4102afc0ce22417ca9f497ccd032b",
        "victims": "dbfad33dad5f7067950048a84e230cfafd5bf46b8ad04723cb533188963810db",
        "resets": "944c9841a65ce10cac3865b4741c0214d4955e74571f9f036d98518b465e2ab0",
        "sets": "3ca4f810158ada8c6747eb86c5c9688a3bc6eb1f7073f67a4974fa444c2521b3",
    },
    "mix_1": {
        "gaps": "71dccd3ea9a974012c39b99e80f7b784c7491ec40774fc4cfc5e4a54da972371",
        "addresses": "3591861517b46f05a25f591ec4f243cdbc569b570274d52f92cae7db3eab52ad",
        "kinds": "b965cfd4408a7f1caa45e360e09c7518768df6721cc1b2c444f6015aa6b8a135",
        "victims": "9c9233ec3945c16390f373e3bddf892113c02e35537ed2db85b47d9c2b7cc036",
        "resets": "80c0f85140dd141c1e46548cd7b23e4ba9023ef73edc6e53d3788ef06bb51595",
        "sets": "2592b7bbf83c4bfed83f0cce56b35b343152bb8ec5af6a4eddb171bd5c54af8d",
    },
}


@pytest.mark.parametrize("name", sorted(QUICK_DIGESTS))
def test_quick_records_pinned(paper_config, name):
    config = paper_config.with_cpu(
        l3_bytes_per_core=max(64 << 10, paper_config.cpu.l3_bytes_per_core // 256)
    )
    frontend = FrontEnd.record(
        config, scale_benchmark(get_benchmark(name), 256), 2500, 3, 4000
    )
    digests = {}
    for field in FIELDS:
        h = hashlib.sha256()
        for core in frontend.cores:
            array = getattr(core, field)
            h.update(f"{array.dtype}{array.shape}".encode())
            h.update(array.tobytes())
        digests[field] = h.hexdigest()
    assert digests == QUICK_DIGESTS[name]


def test_record_opens_one_span_under_a_collector(paper_config):
    config = paper_config.with_cpu(l3_bytes_per_core=64 << 10)
    bench = scale_benchmark(get_benchmark("zeu_m"), 512)
    assert obs.active_collector() is None
    plain = FrontEnd.record(config, bench, 50, 1)
    with obs.collecting() as collector:
        traced = FrontEnd.record(config, bench, 50, 1)
    assert list(collector.spans) == ["frontend.record[benchmark=zeu_m]"]
    for a, b in zip(plain.cores, traced.cores):
        assert all(np.array_equal(getattr(a, f), getattr(b, f)) for f in FIELDS)
