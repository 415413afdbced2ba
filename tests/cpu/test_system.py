"""System-simulator integration tests (small but end-to-end)."""

import pytest

from repro.cpu.system import SystemSimulator
from repro.techniques import make_baseline, make_oracle, make_udrvr_pr
from repro.workloads import get_benchmark
from repro.workloads.benchmarks import scale_benchmark

SCALE = 512
ACCESSES = 1500


@pytest.fixture(scope="module")
def sim_config(paper_config):
    return paper_config.with_cpu(
        l3_bytes_per_core=paper_config.cpu.l3_bytes_per_core // SCALE
    )


@pytest.fixture(scope="module")
def bench():
    return scale_benchmark(get_benchmark("mcf_m"), SCALE)


def run(config, scheme, bench, seed=3):
    return SystemSimulator(
        config, scheme, bench, accesses_per_core=ACCESSES, seed=seed
    ).run()


class TestTermination:
    def test_all_accesses_consumed(self, sim_config, bench):
        result = run(sim_config, make_baseline(sim_config), bench)
        assert result.instructions > 0
        assert len(result.per_core_ipc) == bench.cores
        assert all(ipc > 0 for ipc in result.per_core_ipc)

    def test_write_queue_fully_drained(self, sim_config, bench):
        sim = SystemSimulator(
            sim_config, make_baseline(sim_config), bench,
            accesses_per_core=ACCESSES, seed=3,
        )
        sim.run()
        assert sim.controller.write_queue_depth == 0


class TestDeterminismAndComparability:
    def test_same_seed_same_result(self, sim_config, bench):
        a = run(sim_config, make_baseline(sim_config), bench)
        b = run(sim_config, make_baseline(sim_config), bench)
        assert a.ipc == b.ipc
        assert a.stats.reads == b.stats.reads

    def test_schemes_see_identical_traffic(self, sim_config, bench):
        base = run(sim_config, make_baseline(sim_config), bench)
        fast = run(sim_config, make_oracle(sim_config, 64), bench)
        assert base.stats.reads == fast.stats.reads
        assert base.stats.writes == fast.stats.writes
        assert base.stats.reset_bits == fast.stats.reset_bits

    def test_different_seed_different_trace(self, sim_config, bench):
        a = run(sim_config, make_baseline(sim_config), bench, seed=3)
        b = run(sim_config, make_baseline(sim_config), bench, seed=4)
        assert a.stats.reads != b.stats.reads


class TestPerformanceOrdering:
    def test_oracle_beats_baseline(self, sim_config, bench):
        base = run(sim_config, make_baseline(sim_config), bench)
        oracle = run(sim_config, make_oracle(sim_config, 64), bench)
        assert oracle.ipc > base.ipc

    def test_udrvr_pr_beats_baseline(self, sim_config, bench):
        base = run(sim_config, make_baseline(sim_config), bench)
        ours = run(sim_config, make_udrvr_pr(sim_config), bench)
        assert ours.ipc > base.ipc

    def test_read_latency_reflects_write_interference(self, sim_config, bench):
        base = run(sim_config, make_baseline(sim_config), bench)
        oracle = run(sim_config, make_oracle(sim_config, 64), bench)
        base_lat = base.stats.read_latency_sum / base.stats.reads
        oracle_lat = oracle.stats.read_latency_sum / oracle.stats.reads
        assert base_lat > oracle_lat


class TestReplayCounters:
    def test_events_and_inline_steps_counted_once_per_run(
        self, sim_config, bench, monkeypatch
    ):
        """A write-bound cell folds steps, and reports both counts per run."""
        from repro import obs

        calls = []
        monkeypatch.setattr(obs, "count", lambda name, n=1: calls.append((name, n)))
        sim = SystemSimulator(
            sim_config, make_baseline(sim_config), bench, accesses_per_core=500
        )
        sim.run()
        replay = {name: n for name, n in calls if name.startswith("sim.")}
        assert [name for name, _ in calls if name.startswith("sim.")] == [
            "sim.events",
            "sim.inline_steps",
        ]
        assert replay["sim.inline_steps"] > 0
        # Every access is one step, popped or taken inline.
        steps = bench.cores * 500
        assert replay["sim.events"] > steps - replay["sim.inline_steps"]
