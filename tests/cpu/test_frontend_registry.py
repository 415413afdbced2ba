"""The process registry of recorded front ends (``frontend.recorded``)."""

import sys
import threading

import numpy as np
import pytest

from repro import obs
from repro.analysis.experiments import PerformanceRunner, PerfSettings, _sweep
from repro.circuit.wire import wire_resistance
from repro.config import SelectorParams
from repro.cpu import frontend as frontend_module
from repro.cpu.frontend import FrontEnd, recorded
from repro.engine import RunContext, compute, make_executor
from repro.workloads import get_benchmark
from repro.workloads.benchmarks import scale_benchmark
from repro.xpoint.vmap import ModelCache, profile_registry

QUICK = PerfSettings(
    accesses_per_core=200, warmup_accesses=50, benchmarks=("mcf_m", "lbm_m")
)
TRACE = (QUICK.accesses_per_core, QUICK.seed, QUICK.warmup_accesses)
ARRAYS = ("gaps", "addresses", "kinds", "victims", "resets", "sets")


def runner(config, settings=QUICK, **context):
    context = RunContext(config=config, model_cache=ModelCache(), **context)
    return PerformanceRunner(config=config, settings=settings, context=context)


def misses(run) -> int:
    """``frontend.miss`` counted while ``run()`` runs."""
    collector = obs.Collector()
    with obs.collecting(collector):
        run()
    return collector.counters.get("frontend.miss", 0)


@pytest.fixture
def bench():
    return scale_benchmark(get_benchmark("mcf_m"), QUICK.scale)


class TestSharing:
    def test_runners_on_two_contexts_share_one_recording(self, small_config):
        first, second = runner(small_config), runner(small_config)
        # Each runner scales its own (equal) benchmark specs.
        assert first._suite["mcf_m"] is not second._suite["mcf_m"]
        first.prefetch(("Base",))
        assert misses(lambda: second.prefetch(("Base",))) == 0
        assert recorded(first.config, first._suite["mcf_m"], *TRACE) is recorded(
            second.config, second._suite["mcf_m"], *TRACE
        )

    @pytest.mark.parametrize(
        "variant",
        [
            dict(size=128),
            dict(selector=SelectorParams(kr=500.0)),
            dict(tech_node_nm=10.0, r_wire=wire_resistance(10.0)),
        ],
        ids=["size", "kr", "wire"],
    )
    def test_array_only_changes_share(self, small_config, bench, variant):
        shared = recorded(small_config, bench, *TRACE)
        assert recorded(small_config.with_array(**variant), bench, *TRACE) is shared

    def test_another_scale_seed_or_sizing_records_again(self, small_config, bench):
        shared = recorded(small_config, bench, *TRACE)
        accesses, seed, warmup = TRACE
        other_scale = scale_benchmark(get_benchmark("mcf_m"), 2 * QUICK.scale)
        smaller_l3 = small_config.with_cpu(
            l3_bytes_per_core=small_config.cpu.l3_bytes_per_core // 2
        )
        for args in [
            (small_config, other_scale, accesses, seed, warmup),
            (smaller_l3, bench, accesses, seed, warmup),
            (small_config, bench, accesses, seed + 1, warmup),
            (small_config, bench, accesses + 1, seed, warmup),
            (small_config, bench, accesses, seed, warmup + 1),
        ]:
            assert recorded(*args) is not shared
        assert recorded(small_config, bench, *TRACE) is shared

    def test_recording_equals_a_private_one(self, small_config, bench):
        shared = recorded(small_config, bench, *TRACE)
        private = FrontEnd.record(small_config, bench, *TRACE)
        for a, b in zip(shared.cores, private.cores, strict=True):
            for name in ARRAYS:
                assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_arrays_are_read_only(self, small_config, bench):
        for core in recorded(small_config, bench, *TRACE).cores:
            for name in ARRAYS:
                array = getattr(core, name)
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0


class TestRunner:
    def test_sweep_records_one_front_end_per_benchmark(self, small_config):
        """A Fig. 18-style sweep over three array variants records each
        benchmark once: the variants differ only in the array."""
        variants = {
            "32x32": small_config.with_array(size=32),
            "64x64": small_config,
            "Kr=500": small_config.with_array(selector=SelectorParams(kr=500.0)),
        }
        context = RunContext(config=small_config, model_cache=ModelCache())
        assert misses(lambda: _sweep(variants, QUICK, context)) == len(
            QUICK.benchmarks
        )

    def test_prefetch_starts_one_pool(self, small_config, monkeypatch):
        """Every missing cell runs in one ``map``: one pool for all the
        benchmarks, not one per benchmark."""
        starts = []

        class Counted(compute.ProcessPoolBackend):
            def __init__(self, *args, **kwargs):
                starts.append(kwargs.get("workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(compute, "ProcessPoolBackend", Counted)
        perf = runner(small_config, executor=make_executor(2))
        perf.prefetch(("Base", "UDRVR+PR"))
        assert starts == [2]
        assert len(perf.completed(("Base", "UDRVR+PR"))) == len(QUICK.benchmarks)


class TestBound:
    def test_table_iv_suite_fits(self):
        from repro.analysis.experiments import TABLE_IV

        assert len(TABLE_IV) <= frontend_module._FRONTENDS_BOUND

    def test_least_recently_used_recording_is_evicted(
        self, small_config, bench, monkeypatch
    ):
        monkeypatch.setattr(frontend_module, "_FRONTENDS_BOUND", 2)
        accesses, seed, warmup = TRACE
        kept = recorded(small_config, bench, *TRACE)
        evicted = recorded(small_config, bench, accesses, seed + 1, warmup)
        assert recorded(small_config, bench, *TRACE) is kept  # now the newest
        recorded(small_config, bench, accesses, seed + 2, warmup)
        assert len(frontend_module._frontends) == 2
        assert recorded(small_config, bench, *TRACE) is kept
        assert recorded(small_config, bench, accesses, seed + 1, warmup) is not evicted

    def test_profile_registry_clear_drops_every_recording(self, small_config, bench):
        shared = recorded(small_config, bench, *TRACE)
        profile_registry.clear()
        assert len(frontend_module._frontends) == 0
        assert recorded(small_config, bench, *TRACE) is not shared


def test_concurrent_first_recordings_end_on_one_object(
    small_config, bench, monkeypatch
):
    """Threads that all miss and all record keep one recording: the
    first insert wins."""
    threads = 8
    everyone_recording = threading.Barrier(threads)
    record = FrontEnd.record

    def overlapping(cls, *args):
        everyone_recording.wait(timeout=30)
        return record(*args)

    monkeypatch.setattr(FrontEnd, "record", classmethod(overlapping))
    frontends = [None] * threads

    def first_recording(index):
        frontends[index] = recorded(small_config, bench, *TRACE)

    workers = [
        threading.Thread(target=first_recording, args=(i,)) for i in range(threads)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert frontends[0] is not None
    assert all(frontend is frontends[0] for frontend in frontends)
    assert recorded(small_config, bench, *TRACE) is frontends[0]
