"""Warm shared contexts: one model cache across repeated runs."""

import threading

import pytest

from repro.engine import run_experiment
from repro.engine.registry import _REGISTRY, Experiment, register
from repro.engine.warm import (
    _MAX_WARM,
    clear_warm_contexts,
    default_context,
    warm_context,
    warm_context_count,
)


@pytest.fixture(autouse=True)
def _fresh_registry():
    clear_warm_contexts()
    yield
    clear_warm_contexts()


def _context_identity_driver(config=None, context=None):
    return {"context_id": id(context)}


@pytest.fixture
def identity_probe():
    register(
        Experiment(
            name="_warm_probe", driver=_context_identity_driver, title="w"
        )
    )
    yield "_warm_probe"
    _REGISTRY.pop("_warm_probe", None)


class TestMemoisation:
    def test_equal_parameters_share_one_context(self):
        assert warm_context(seed=1) is warm_context(seed=1)

    def test_differing_parameters_get_distinct_contexts(self):
        assert warm_context(seed=1) is not warm_context(seed=2)
        assert warm_context() is not warm_context(solver="batched")
        assert warm_context() is not warm_context(strict=True)

    def test_reference_solver_aliases_default(self):
        """``solver=None`` and ``solver='reference'`` are one key."""
        assert warm_context() is warm_context(solver="reference")

    def test_default_context_is_the_parameterless_warm_context(self):
        assert default_context() is warm_context()

    def test_clear_drops_memoised_contexts(self):
        before = warm_context(seed=7)
        clear_warm_contexts()
        assert warm_context(seed=7) is not before

    def test_registry_is_bounded(self):
        for seed in range(_MAX_WARM + 5):
            warm_context(seed=seed)
        assert warm_context_count() == _MAX_WARM

    def test_warm_contexts_carry_no_collector(self):
        """Profiling stays per-call: collectors are not part of the key."""
        assert warm_context().collector is None

    def test_cache_dir_none_disables_disk_cache(self, tmp_path):
        assert not warm_context().cache.enabled
        assert warm_context(cache_dir=str(tmp_path)).cache.enabled

    def test_cache_dir_spellings_share_one_context(self, tmp_path, monkeypatch):
        """Relative and absolute spellings of one directory are one key.

        Before normalisation they raced two model caches onto one disk
        cache; now they memoise to the same context object.
        """
        monkeypatch.chdir(tmp_path)
        relative = warm_context(cache_dir="cache")
        absolute = warm_context(cache_dir=str(tmp_path / "cache"))
        assert relative is absolute
        assert warm_context_count() == 1


class _TrackingExecutor:
    """Stand-in executor: one cheap, identifiable object per built context."""

    workers = 1


class TestEvictionLifecycle:
    """Churned and raced contexts: LRU eviction, one winner per key."""

    def test_churn_evicts_oldest_first(self, monkeypatch):
        from repro.engine import warm

        made = []

        def tracked_executor(workers, strict=False):
            executor = _TrackingExecutor()
            made.append(executor)
            return executor

        monkeypatch.setattr(warm, "make_executor", tracked_executor)
        churn = _MAX_WARM + 5
        contexts = [warm_context(seed=seed) for seed in range(churn)]
        assert warm_context_count() == _MAX_WARM
        assert len(made) == churn
        # The newest _MAX_WARM survive (lookups are hits, no rebuild) ...
        for seed in range(churn - _MAX_WARM, churn):
            assert warm_context(seed=seed) is contexts[seed]
        assert len(made) == churn
        # ... and the oldest were evicted (a lookup rebuilds).
        assert warm_context(seed=0) is not contexts[0]
        assert len(made) == churn + 1

    def test_construction_race_converges_to_one_context(self, monkeypatch):
        """Racing builders of one key all get the winner's context."""
        from repro.engine import warm

        made = []
        lock = threading.Lock()

        def tracked_executor(workers, strict=False):
            executor = _TrackingExecutor()
            with lock:
                made.append(executor)
            return executor

        monkeypatch.setattr(warm, "make_executor", tracked_executor)
        barrier = threading.Barrier(4)
        got = []

        def build():
            barrier.wait()
            context = warm_context(seed=99)
            with lock:
                got.append(context)

        threads = [threading.Thread(target=build) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(map(id, got))) == 1
        assert warm_context_count() == 1
        assert got[0].executor in made

    def test_evicted_parallel_context_leaves_no_live_children(self):
        """End to end: a parallel context's map leaves no live children."""
        import multiprocessing

        from repro.engine.executor import ParallelExecutor

        context = warm_context(seed=1234, workers=2)
        assert isinstance(context.executor, ParallelExecutor)
        results = context.executor.map(_square_task, [1, 2, 3, 4])
        assert [r.value for r in results] == [1, 4, 9, 16]
        assert multiprocessing.active_children() == []
        clear_warm_contexts()
        assert multiprocessing.active_children() == []


def _square_task(x):
    return x * x


class TestRunnerIntegration:
    def test_repeated_runs_reuse_one_context(self, identity_probe):
        """Satellite check: back-to-back in-process calls share caches."""
        first = run_experiment(identity_probe)
        second = run_experiment(identity_probe)
        assert first.payload["context_id"] == second.payload["context_id"]
        assert first.payload["context_id"] == id(default_context())

    def test_explicit_context_still_wins(self, identity_probe):
        from repro.engine import RunContext

        mine = RunContext()
        result = run_experiment(identity_probe, mine)
        assert result.payload["context_id"] == id(mine)
