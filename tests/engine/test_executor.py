"""Executor determinism, parallel/serial equivalence, failure paths."""

import multiprocessing
import os
import pathlib
import random
import threading
import time

import pytest

from repro.analysis.experiments import PerfSettings, fig05c
from repro.engine import RunContext
from repro.engine.executor import (
    ParallelExecutor,
    RetryPolicy,
    SerialExecutor,
    make_executor,
)

#: Negligible backoff so retry tests do not sleep.
FAST = RetryPolicy(retries=2, backoff_s=0.001, jitter=0.0)


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("boom")
    return x


def _hang_on_three(x):
    if x == 3:
        time.sleep(30.0)
    return x


def _exit_on_three(x):
    """Poison task: kills its *worker* process (the parent survives)."""
    if x == 3 and multiprocessing.parent_process() is not None:
        time.sleep(0.3)  # let the innocent in-flight tasks finish first
        os._exit(1)
    return x


def _lock_on_three(x):
    """Returns a value no pipe can carry for ``x == 3``."""
    return threading.Lock() if x == 3 else x


def _counted_square(x):
    """Task that records its own observation (worker- or parent-side)."""
    from repro import obs

    obs.count("task.calls")
    return x * x


def _flaky(path_str):
    """Fails on the first two attempts, then succeeds (file-counted)."""
    path = pathlib.Path(path_str)
    prior = len(path.read_text().splitlines()) if path.exists() else 0
    with open(path, "a") as handle:
        handle.write("attempt\n")
    if prior < 2:
        raise RuntimeError(f"flaky failure {prior + 1}")
    return "ok"


class TestExecutors:
    def test_serial_ordering_and_timing(self):
        results = SerialExecutor().map(_square, [3, 1, 2])
        assert [r.value for r in results] == [9, 1, 4]
        assert [r.index for r in results] == [0, 1, 2]
        assert all(r.wall_s >= 0 for r in results)

    def test_parallel_matches_serial(self):
        items = list(range(12))
        serial = SerialExecutor().map(_square, items)
        parallel = ParallelExecutor(4).map(_square, items)
        assert [r.value for r in serial] == [r.value for r in parallel]
        assert [r.index for r in parallel] == list(range(12))

    def test_parallel_single_item_falls_back_to_serial(self):
        results = ParallelExecutor(4).map(_square, [5])
        assert [r.value for r in results] == [25]

    def test_strict_parallel_propagates_worker_errors(self):
        with pytest.raises(ValueError, match="boom"):
            ParallelExecutor(2, strict=True).map(_fail_on_three, [1, 2, 3, 4])

    def test_strict_serial_propagates_errors(self):
        with pytest.raises(ValueError, match="boom"):
            SerialExecutor(strict=True).map(_fail_on_three, [1, 2, 3, 4])

    def test_make_executor(self):
        assert make_executor(None).label == "serial"
        assert make_executor(1).label == "serial"
        assert make_executor(4).label == "parallel[4]"

    def test_invalid_workers(self):
        with pytest.raises(ValueError, match="workers must be >= 0"):
            ParallelExecutor(-1)
        with pytest.raises(ValueError, match="workers must be >= 0"):
            make_executor(-2)
        assert ParallelExecutor(0).workers >= 1  # 0 = auto-detect


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="retries"):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError, match="timeout_s"):
            RetryPolicy(timeout_s=0.0)
        with pytest.raises(ValueError, match="max_pool_deaths"):
            RetryPolicy(max_pool_deaths=-1)

    def test_max_attempts(self):
        assert RetryPolicy(retries=0).max_attempts == 1
        assert RetryPolicy(retries=3).max_attempts == 4

    def test_delay_grows_and_is_deterministic(self):
        policy = RetryPolicy(backoff_s=0.1, backoff_factor=2.0, jitter=0.25)
        first = [policy.delay(a, random.Random(7)) for a in (1, 2, 3)]
        second = [policy.delay(a, random.Random(7)) for a in (1, 2, 3)]
        assert first == second  # same rng state -> same jitter
        exact = RetryPolicy(backoff_s=0.1, backoff_factor=2.0, jitter=0.0)
        assert [exact.delay(a, random.Random(0)) for a in (1, 2, 3)] == [
            pytest.approx(0.1), pytest.approx(0.2), pytest.approx(0.4),
        ]

    def test_jitter_stays_within_envelope(self):
        """Every jittered delay lands in [base*(1-j), base*(1+j)].

        Regression guard for the backoff schedule: a delay outside the
        envelope either hammers a recovering pool (too short) or
        silently stretches restart gates (too long).
        """
        policy = RetryPolicy(backoff_s=0.05, backoff_factor=2.0, jitter=0.25)
        rng = random.Random(123)
        for attempt in (1, 2, 3, 4, 5):
            base = policy.backoff_s * policy.backoff_factor ** (attempt - 1)
            lo, hi = base * 0.75, base * 1.25
            delays = [policy.delay(attempt, rng) for _ in range(200)]
            assert all(lo <= d <= hi for d in delays)
            # The jitter is real: draws inside one attempt differ.
            assert len({round(d, 12) for d in delays}) > 1


class TestFailureContainment:
    """Non-strict executors degrade to partial batches, never raise."""

    def _check_partial(self, results):
        assert [r.index for r in results] == [0, 1, 2, 3]  # input order
        assert [r.value for r in results] == [1, 2, None, 4]
        failed = results[2]
        assert not failed.ok
        assert failed.error.error_type == "ValueError"
        assert failed.error.message == "boom"
        assert failed.error.attempts == FAST.max_attempts
        assert all(r.ok and r.attempts == 1 for r in results if r.index != 2)

    def test_serial_contains_failures(self):
        self._check_partial(
            SerialExecutor(FAST).map(_fail_on_three, [1, 2, 3, 4])
        )

    def test_parallel_contains_failures(self):
        self._check_partial(
            ParallelExecutor(2, FAST).map(_fail_on_three, [1, 2, 3, 4])
        )

    def test_unpicklable_item_or_value_is_a_task_error(self):
        """Neither an item nor a return value that cannot be pickled
        hangs the map or kills a worker: each is that task's failure."""
        items = [1, 2, threading.Lock(), 4]
        results = ParallelExecutor(2, FAST).map(_square, items)
        assert [r.ok for r in results] == [True, True, False, True]
        assert "pickle" in results[2].error.message
        results = ParallelExecutor(2, FAST).map(_lock_on_three, [1, 2, 3, 4])
        assert [r.value for r in results] == [1, 2, None, 4]
        assert "pickle" in results[2].error.message

    def test_task_error_to_plain(self):
        results = SerialExecutor(FAST).map(_fail_on_three, [3])
        record = results[0].error.to_plain()
        assert record == {
            "index": 0,
            "error_type": "ValueError",
            "message": "boom",
            "attempts": 3,
        }
        assert "boom" in results[0].error.traceback

    def test_serial_retry_then_succeed(self, tmp_path):
        results = SerialExecutor(FAST).map(_flaky, [str(tmp_path / "a")])
        assert results[0].ok
        assert results[0].value == "ok"
        assert results[0].attempts == 3

    def test_parallel_retry_then_succeed(self, tmp_path):
        items = [str(tmp_path / "a"), str(tmp_path / "b")]
        results = ParallelExecutor(2, FAST).map(_flaky, items)
        assert [r.value for r in results] == ["ok", "ok"]
        assert [r.attempts for r in results] == [3, 3]


class TestTimeout:
    def test_hung_task_times_out_and_survivors_complete(self):
        policy = RetryPolicy(
            retries=0, backoff_s=0.0, jitter=0.0, timeout_s=0.75
        )
        start = time.monotonic()
        results = ParallelExecutor(2, policy).map(_hang_on_three, [1, 2, 3, 4])
        assert time.monotonic() - start < 15.0  # did not wait out the hang
        assert [r.index for r in results] == [0, 1, 2, 3]
        assert [r.value for r in results] == [1, 2, None, 4]
        hung = results[2]
        assert hung.error.error_type == "TimeoutError"
        assert "timeout_s=0.75" in hung.error.message

    def test_strict_hung_task_raises_timeout(self):
        """Strict maps honour the deadline too, and raise TimeoutError."""
        policy = RetryPolicy(retries=0, timeout_s=0.75)
        start = time.monotonic()
        with pytest.raises(TimeoutError, match="timeout_s=0.75"):
            ParallelExecutor(2, policy, strict=True).map(
                _hang_on_three, [1, 2, 3, 4]
            )
        assert time.monotonic() - start < 15.0  # did not wait out the hang


class TestPoolDeath:
    def test_worker_death_preserves_survivors(self):
        """A dead worker costs one task its attempts, nothing else."""
        policy = RetryPolicy(
            retries=1, backoff_s=0.001, jitter=0.0, max_pool_deaths=2
        )
        items = [1, 2, 3, 4, 5, 6, 7, 8]
        results = ParallelExecutor(2, policy).map(_exit_on_three, items)
        assert [r.index for r in results] == list(range(8))
        poisoned = results[2]
        assert poisoned.error is not None
        assert poisoned.error.error_type == "PoolBrokenError"
        assert poisoned.error.attempts == 2  # one per pool death
        survivors = [r for r in results if r.index != 2]
        assert [r.value for r in survivors] == [1, 2, 4, 5, 6, 7, 8]
        assert all(r.ok for r in survivors)

    def test_serial_fallback_after_pool_deaths(self):
        """Past the death budget the batch still completes, in-process."""
        policy = RetryPolicy(
            retries=3, backoff_s=0.001, jitter=0.0, max_pool_deaths=1
        )
        items = [1, 2, 3, 4, 5, 6]
        results = ParallelExecutor(2, policy).map(_exit_on_three, items)
        # The poison task only kills worker processes; the serial
        # fallback runs it in the parent, where it succeeds.
        assert [r.value for r in results] == items
        assert all(r.ok for r in results)
        assert results[2].attempts == 2  # pool death, then serial success


class TestDrainDeadlines:
    """Regression: a timeout-less policy must drain without deadlines."""

    def test_retry_drain_without_any_timeout(self, tmp_path):
        """A timeout-less policy with retries drains to completion."""
        items = [str(tmp_path / "a"), str(tmp_path / "b"), str(tmp_path / "c")]
        results = ParallelExecutor(2, FAST).map(_flaky, items)
        assert [r.value for r in results] == ["ok"] * 3


class TestCloseLifecycle:
    """Each map closes its own pool: nothing outlives a map."""

    def _assert_nothing_left(self):
        assert multiprocessing.active_children() == []

    def test_close_joins_worker_processes(self):
        executor = ParallelExecutor(2)
        assert [r.value for r in executor.map(_square, [1, 2, 3, 4])] == [
            1, 4, 9, 16,
        ]
        self._assert_nothing_left()

    def test_close_is_idempotent_and_map_still_works(self):
        # The pool a map closes on its way out is that map's alone: the
        # executor stays usable, and the next map starts a fresh pool.
        executor = ParallelExecutor(2)
        executor.map(_square, [1, 2, 3, 4])
        self._assert_nothing_left()
        assert [r.value for r in executor.map(_square, [5, 6, 7, 8])] == [
            25, 36, 49, 64,
        ]
        self._assert_nothing_left()

    def test_registry_prunes_dead_pools_across_maps(self):
        # No finished pool or worker accumulates across maps.
        executor = ParallelExecutor(2)
        for batch in range(3):
            assert [r.value for r in executor.map(_square, [5, 6, 7])] == [
                25, 36, 49,
            ]
            self._assert_nothing_left()

    def test_idle_executor_owns_no_process(self):
        ParallelExecutor(2)
        SerialExecutor().map(_square, [3])
        assert multiprocessing.active_children() == []

    def test_worker_exit_map_leaves_nothing(self):
        policy = RetryPolicy(retries=1, backoff_s=0.001, jitter=0.0)
        results = ParallelExecutor(2, policy).map(_exit_on_three, [1, 2, 3, 4])
        assert [r.ok for r in results] == [True, True, False, True]
        self._assert_nothing_left()

    def test_strict_raise_leaves_nothing(self):
        with pytest.raises(ValueError, match="boom"):
            ParallelExecutor(2, strict=True).map(_fail_on_three, [1, 2, 3, 4])
        self._assert_nothing_left()


class TestObservability:
    def test_serial_map_counts_tasks_and_span(self):
        from repro import obs

        collector = obs.Collector()
        with obs.collecting(collector):
            SerialExecutor().map(_counted_square, [1, 2, 3])
        snap = collector.snapshot()
        assert snap.counters["executor.tasks"] == 3
        assert snap.counters["task.calls"] == 3
        assert "executor.map[executor=serial]" in snap.spans

    def test_parallel_map_merges_worker_snapshots(self):
        """Observations recorded inside pool workers reach the parent."""
        from repro import obs

        collector = obs.Collector()
        with obs.collecting(collector):
            ParallelExecutor(2).map(_counted_square, [1, 2, 3, 4])
        snap = collector.snapshot()
        assert snap.counters["task.calls"] == 4
        assert snap.counters["executor.tasks"] == 4

    def test_retries_and_failures_counted(self):
        from repro import obs

        collector = obs.Collector()
        with obs.collecting(collector):
            SerialExecutor(FAST).map(_fail_on_three, [1, 2, 3, 4])
        snap = collector.snapshot()
        assert snap.counters["executor.failures"] == 1
        assert snap.counters["executor.retries"] == FAST.max_attempts - 1

    def test_no_collector_records_nothing(self):
        from repro import obs

        results = ParallelExecutor(2).map(_counted_square, [1, 2, 3, 4])
        assert [r.value for r in results] == [1, 4, 9, 16]
        assert obs.active_collector() is None
        assert all(r.obs is None for r in results)


@pytest.mark.slow
class TestPerfEquivalence:
    def test_fig05c_quick_parallel_equals_serial(self):
        """The fanned-out (scheme, benchmark) grid is bit-identical."""
        settings = PerfSettings(
            accesses_per_core=1500,
            warmup_accesses=600,
            benchmarks=("mcf_m", "zeu_m"),
        )
        serial = fig05c(settings=settings)
        parallel = fig05c(
            settings=settings,
            context=RunContext(executor=ParallelExecutor(2)),
        )
        assert serial["per_benchmark"] == parallel["per_benchmark"]
        assert serial["geomean"] == parallel["geomean"]
