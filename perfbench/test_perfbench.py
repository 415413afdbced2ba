"""Self-tests of the benchmark's own logic (not of the program).

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import compare, metrics, stats  # noqa: E402
from perfbench.serve import CLIENTS, COLD_EXPERIMENT, RequestMix  # noqa: E402
from perfbench.tracer import Tracer, attribution, installed  # noqa: E402


def _stream(seed: int, client: int, count: int) -> list:
    mix = RequestMix(seed, client)
    return [mix.next() for _ in range(count)]


class TestServeMix:
    def test_same_seed_same_stream(self):
        assert _stream(7, 0, 60) == _stream(7, 0, 60)

    def test_seed_and_client_change_the_stream(self):
        assert _stream(7, 0, 60) != _stream(8, 0, 60)
        assert _stream(7, 0, 60) != _stream(7, 1, 60)

    def test_each_block_is_one_cold_one_shared_one_repeat(self):
        stream = _stream(3, 1, 90)
        for start in range(0, len(stream), 3):
            block = stream[start : start + 3]
            assert block[0].kind == "cold"
            assert sorted(r.kind for r in block) == ["cold", "repeat", "shared"]
        kinds = ("cold", "shared", "repeat")
        shares = {k: sum(r.kind == k for r in stream) / len(stream) for k in kinds}
        assert shares == pytest.approx({k: 1 / 3 for k in kinds})

    def test_requests_refer_only_to_the_clients_own_earlier_identities(self):
        for client in range(CLIENTS):
            mix = RequestMix(5, client)
            seen = {mix.fault_identity(0)}  # the warm-up identity
            requested: set = set()
            for request in (mix.next() for _ in range(120)):
                identity = (request.fault_rate, request.fault_seed)
                key = (request.experiment, identity)
                if request.kind == "cold":
                    assert request.experiment == COLD_EXPERIMENT
                    assert identity not in seen
                    seen.add(identity)
                elif request.kind == "shared":
                    assert identity in seen or request.fault_rate is None
                    assert key not in requested  # first use of this pair
                else:
                    assert key in requested  # an exact earlier request
                requested.add(key)

    def test_cold_identities_never_collide_across_clients(self):
        colds = [
            {
                (r.fault_rate, r.fault_seed)
                for r in _stream(2, c, 90)
                if r.kind == "cold"
            }
            | {RequestMix(2, c).fault_identity(0)}
            for c in range(CLIENTS)
        ]
        assert not colds[0] & colds[1]


class TestTail:
    def test_highest_percentile_with_ten_samples_beyond(self):
        values = list(range(1, 31))  # 30 samples
        value, percentile = stats.tail(values)
        assert value == 20
        assert sum(v > value for v in values) == 10
        assert percentile == pytest.approx(100 * 20 / 30)

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 9.0] * 10
        assert stats.tail(values) == stats.tail(sorted(values))

    def test_small_samples_report_the_maximum(self):
        for n in (1, 5, 12, 20):
            assert stats.tail(list(range(n))) == (n - 1, 100.0)
        assert stats.tail(list(range(21)))[0] == 10

    def test_empty_sample_is_an_error(self):
        with pytest.raises(ValueError):
            stats.tail([])


class _FakeClock:
    """A clock that advances one second per reading."""

    def __init__(self) -> None:
        self._ticks = itertools.count()

    def __call__(self) -> float:
        return float(next(self._ticks))


class _Layered:
    def leaf(self):
        return "leaf"

    def outer(self):
        return [self.leaf(), self.leaf()]


class TestAttribution:
    def test_self_times_and_remainder_sum_to_wall(self):
        tracer = Tracer(clock=_FakeClock())
        targets = [(_Layered, "outer", "outer"), (_Layered, "leaf", "leaf")]
        with installed(tracer, targets):
            obj = _Layered()
            assert obj.outer() == ["leaf", "leaf"]
            obj.leaf()
        assert _Layered.__dict__["leaf"].__name__ == "leaf"  # restored
        calls, total, own = tracer.layers["outer"]
        assert calls == 1 and own == total - 2 * 1.0  # two 1 s leaf spans
        assert tracer.calls("leaf") == 3
        wall = 20.0
        table = attribution(tracer, wall)
        parts = sum(row["self_s"] for row in table["rows"].values())
        assert parts + table["unattributed_s"] == pytest.approx(wall)
        assert table["coverage"] == pytest.approx(parts / wall)

    def test_benchmark_spans_nest_with_wrapped_calls(self):
        tracer = Tracer(clock=_FakeClock())
        with installed(tracer, [(_Layered, "leaf", "leaf")]):
            with tracer.span("figure"):
                _Layered().leaf()
        assert tracer.self_s("figure") == tracer.layers["figure"][1] - 1.0


class TestSpec:
    def test_benchmark_json_matches_the_reported_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == (
            metrics.END_TO_END
        )
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
        names = [w["name"] for w in spec["workloads"]]
        from perfbench.run import WORKLOADS

        assert tuple(names) == WORKLOADS


class TestCompare:
    @staticmethod
    def _record(trace, **values):
        return {"workload": "sim-write", "seed": 1, "trace": trace,
                "digest": "d", "metrics": values}

    def test_regression_row_names_the_slowed_layer(self):
        base = [self._record(0, run_s=10.0), self._record(1, **{
            "cpu.run.self_s": 2.0, "mem.line_write.self_s": 4.0,
            "trace.run_s": 11.0})]
        new = [self._record(0, run_s=13.0), self._record(1, **{
            "cpu.run.self_s": 2.0, "mem.line_write.self_s": 6.0,
            "trace.run_s": 13.0})]
        report = compare.compare(base, new)
        assert "REGRESSED" in report
        layer_lines = report.split("per-layer self time")[1].splitlines()[1:]
        assert "mem.line_write.self_s" in layer_lines[0]
        assert "output digests unchanged" in report
