"""The process registry of line-write models (``line_codec.write_model``)."""

import sys
import threading

from repro import obs
from repro.analysis.experiments import PerformanceRunner, PerfSettings
from repro.engine import RunContext, make_executor
from repro.mem import line_codec
from repro.mem.line_codec import write_model
from repro.techniques import make_baseline, make_dbl, standard_schemes
from repro.xpoint.vmap import ModelCache, profile_registry

QUICK = PerfSettings(accesses_per_core=200, warmup_accesses=0, benchmarks=("mcf_m",))


def runner(config, solver=None):
    context = RunContext(config=config, solver=solver, model_cache=ModelCache())
    return PerformanceRunner(config=config, settings=QUICK, context=context)


class TestSharing:
    def test_runners_on_two_contexts_share_one_model(self, small_config):
        first, second = runner(small_config), runner(small_config)
        for name in ("Base", "UDRVR+PR", "ora-64x64"):
            # Each context builds its own (equal) scheme objects.
            assert first.scheme(name) is not second.scheme(name)
            assert write_model(*first._recipe(name)) is write_model(
                *second._recipe(name)
            )

    def test_another_solver_or_config_builds_another_model(
        self, small_config, mini_config
    ):
        scheme = make_baseline(small_config)
        model = write_model(small_config, scheme)
        assert write_model(small_config, scheme, "batched") is model
        assert write_model(small_config, scheme, "reference") is not model
        assert write_model(mini_config, scheme) is not model

    def test_pool_tasks_report_their_model_lookups(self, small_config):
        """Under ``--workers 2`` each task takes its model inside its own
        scope, so the workers' lookups reach the parent's collector."""
        context = RunContext(
            config=small_config,
            executor=make_executor(2),
            model_cache=ModelCache(),
        )
        perf = PerformanceRunner(config=small_config, settings=QUICK, context=context)
        collector = obs.Collector()
        with obs.collecting(collector):
            perf.prefetch(("Base", "UDRVR+PR"))
        counters = collector.snapshot().to_plain()["counters"]
        assert counters["executor.tasks"] == 2
        assert "executor.serial_fallback_tasks" not in counters
        lookups = counters.get("write_model.miss", 0) + counters.get(
            "write_model.hit", 0
        )
        assert lookups == 2 + 2  # the runner's two builds, one per task


class TestBound:
    def test_one_scheme_registry_fits(self, small_config):
        assert len(standard_schemes(small_config)) <= line_codec._MODELS_BOUND

    def test_least_recently_used_model_is_evicted(
        self, small_config, monkeypatch
    ):
        monkeypatch.setattr(line_codec, "_MODELS_BOUND", 2)
        base, dbl = make_baseline(small_config), make_dbl(small_config)
        kept = write_model(small_config, base)
        evicted = write_model(small_config, dbl)
        assert write_model(small_config, base) is kept  # now the newest
        write_model(small_config, base, "reference")
        assert len(line_codec._models) == 2
        assert write_model(small_config, base) is kept
        assert write_model(small_config, dbl) is not evicted

    def test_profile_registry_clear_drops_every_model(self, small_config):
        scheme = make_baseline(small_config)
        model = write_model(small_config, scheme)
        profile_registry.clear()
        assert len(line_codec._models) == 0
        assert write_model(small_config, scheme) is not model


def test_concurrent_first_builds_end_on_one_model(small_config, monkeypatch):
    """Threads that all miss and all build keep one model: the first
    insert wins."""
    threads = 8
    everyone_building = threading.Barrier(threads)
    build = line_codec.LineWriteModel

    def overlapping(*args):
        everyone_building.wait(timeout=30)
        return build(*args)

    monkeypatch.setattr(line_codec, "LineWriteModel", overlapping)
    scheme = make_baseline(small_config)
    models = [None] * threads

    def first_build(index):
        models[index] = write_model(small_config, scheme)

    workers = [
        threading.Thread(target=first_build, args=(i,)) for i in range(threads)
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
    assert models[0] is not None
    assert all(model is models[0] for model in models)
    assert write_model(small_config, scheme) is models[0]
