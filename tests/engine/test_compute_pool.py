"""Supervised ProcessPoolBackend: execution, crash recovery, drain."""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.chaos import ChaosPolicy
from repro.engine.compute import (
    ComputeJobError,
    PoolBrokenError,
    ProcessPoolBackend,
)
from repro.engine.plan import build_plan
from repro.engine.registry import _REGISTRY, Experiment, register
from repro.engine.warm import clear_warm_contexts, warm_context


@pytest.fixture(autouse=True)
def _fresh_warm_contexts():
    clear_warm_contexts()
    yield
    clear_warm_contexts()


def _ok_driver(config=None, context=None):
    return {"seed": context.seed, "pid": os.getpid()}


def _boom_driver(config=None, context=None):
    raise ValueError("intentional failure")


def _slow_driver(config=None, context=None):
    time.sleep(30.0)
    return {"seed": context.seed}


def _nap_driver(config=None, context=None):
    time.sleep(0.6)
    return {"seed": context.seed}


@pytest.fixture
def ok_probe():
    register(Experiment(name="_pool_ok", driver=_ok_driver, title="ok"))
    yield "_pool_ok"
    _REGISTRY.pop("_pool_ok", None)


@pytest.fixture
def boom_probe():
    register(Experiment(name="_pool_boom", driver=_boom_driver, title="boom"))
    yield "_pool_boom"
    _REGISTRY.pop("_pool_boom", None)


@pytest.fixture
def slow_probe():
    register(Experiment(name="_pool_slow", driver=_slow_driver, title="slow"))
    yield "_pool_slow"
    _REGISTRY.pop("_pool_slow", None)


@pytest.fixture
def nap_probe():
    register(Experiment(name="_pool_nap", driver=_nap_driver, title="nap"))
    yield "_pool_nap"
    _REGISTRY.pop("_pool_nap", None)


class TestExecution:
    def test_plans_execute_in_worker_processes(self, ok_probe):
        backend = ProcessPoolBackend(workers=2)
        try:
            contexts = [warm_context(seed=s) for s in range(4)]
            futures = [
                backend.submit(build_plan(ok_probe, ctx), ctx)
                for ctx in contexts
            ]
            payloads = [f.result(timeout=60).payload for f in futures]
            assert [p["seed"] for p in payloads] == [0, 1, 2, 3]
            # Plans genuinely left this process.
            assert all(p["pid"] != os.getpid() for p in payloads)
        finally:
            backend.close()
        assert backend.alive_workers() == 0

    def test_task_failure_is_a_job_error_not_infrastructure(
        self, ok_probe, boom_probe
    ):
        backend = ProcessPoolBackend(workers=1)
        try:
            ctx = warm_context(seed=0)
            future = backend.submit(build_plan(boom_probe, ctx), ctx)
            with pytest.raises(ComputeJobError) as excinfo:
                future.result(timeout=60)
            assert excinfo.value.error_type == "ValueError"
            assert "intentional failure" in str(excinfo.value)
            assert "Traceback" in excinfo.value.tb
            # The worker survives a raising task: next plan still runs.
            again = backend.submit(build_plan(ok_probe, ctx), ctx)
            assert again.result(timeout=60).payload["seed"] == 0
            counters = backend.stats().counters
            assert counters["compute.job_errors"] == 1
            assert counters.get("compute.worker_deaths", 0) == 0
        finally:
            backend.close()

    def test_submit_after_close_refused(self, ok_probe):
        backend = ProcessPoolBackend(workers=1)
        backend.close()
        ctx = warm_context(seed=0)
        with pytest.raises(RuntimeError, match="closed"):
            backend.submit(build_plan(ok_probe, ctx), ctx)


class TestCrashRecovery:
    def test_chaos_killed_workers_requeue_and_converge(self, ok_probe):
        # Seed 4 against these tokens: plan seeds 0/1/3 kill their
        # worker on the first attempt (seeds 0 and 3 on the second
        # attempt too) and every plan converges within the default
        # resubmission budget (deterministic, see ChaosPolicy.draw).
        policy = ChaosPolicy(seed=4, kill_worker_rate=0.5, kill_delay_ms=0)
        backend = ProcessPoolBackend(
            workers=2, restart_budget=16, chaos_policy=policy
        )
        try:
            contexts = [warm_context(seed=s) for s in range(8)]
            futures = [
                backend.submit(build_plan(ok_probe, ctx), ctx)
                for ctx in contexts
            ]
            payloads = [f.result(timeout=120).payload for f in futures]
            assert [p["seed"] for p in payloads] == list(range(8))
            counters = backend.stats().counters
            assert counters["compute.worker_deaths"] >= 2
            assert counters["compute.requeues"] >= 2
            assert counters["compute.worker_restarts"] >= 2
        finally:
            backend.close()
        assert backend.alive_workers() == 0

    def test_externally_killed_worker_is_replaced(self, ok_probe):
        backend = ProcessPoolBackend(workers=1, restart_budget=4)
        try:
            ctx = warm_context(seed=0)
            first = backend.submit(build_plan(ok_probe, ctx), ctx)
            assert first.result(timeout=60).payload["seed"] == 0
            victim = next(iter(backend._pool.values())).process.pid
            os.kill(victim, signal.SIGKILL)
            # The supervisor reaps the corpse and respawns; the backend
            # keeps serving without any caller-side intervention.
            second = backend.submit(build_plan(ok_probe, ctx), ctx)
            assert second.result(timeout=60).payload["seed"] == 0
            counters = backend.stats().counters
            assert counters["compute.worker_deaths"] >= 1
            assert counters["compute.worker_restarts"] >= 1
        finally:
            backend.close()

    def test_resubmission_budget_exhaustion_fails_the_plan(self, ok_probe):
        # Rate 1.0: every attempt dies; the plan burns its resubmission
        # budget and fails with the infrastructure error.
        policy = ChaosPolicy(seed=0, kill_worker_rate=1.0, kill_delay_ms=0)
        backend = ProcessPoolBackend(
            workers=1, restart_budget=8, resubmit_limit=1, chaos_policy=policy
        )
        try:
            ctx = warm_context(seed=0)
            future = backend.submit(build_plan(ok_probe, ctx), ctx)
            with pytest.raises(PoolBrokenError, match="resubmission budget"):
                future.result(timeout=120)
        finally:
            backend.close()

    def test_restart_budget_exhaustion_breaks_the_pool(self, ok_probe):
        policy = ChaosPolicy(seed=0, kill_worker_rate=1.0, kill_delay_ms=0)
        backend = ProcessPoolBackend(
            workers=1, restart_budget=1, resubmit_limit=0, chaos_policy=policy
        )
        try:
            ctx = warm_context(seed=0)
            plan = build_plan(ok_probe, ctx)
            with pytest.raises(PoolBrokenError):
                backend.submit(plan, ctx).result(timeout=120)
            with pytest.raises(PoolBrokenError):
                backend.submit(plan, ctx).result(timeout=120)
            deadline = time.monotonic() + 30
            while not backend.broken and time.monotonic() < deadline:
                time.sleep(0.05)
            assert backend.broken
            with pytest.raises(PoolBrokenError):
                backend.submit(plan, ctx)
            counters = backend.stats().counters
            assert counters["compute.pool_broken"] == 1
        finally:
            backend.close()

    def test_wedged_worker_is_terminated_at_deadline(
        self, ok_probe, slow_probe
    ):
        backend = ProcessPoolBackend(
            workers=1, restart_budget=4, resubmit_limit=0, job_deadline_s=0.5
        )
        try:
            ctx = warm_context(seed=0)
            future = backend.submit(build_plan(slow_probe, ctx), ctx)
            with pytest.raises(PoolBrokenError):
                future.result(timeout=60)
            counters = backend.stats().counters
            assert counters["compute.worker_wedged"] == 1
            # The replacement worker serves normally.
            again = backend.submit(build_plan(ok_probe, ctx), ctx)
            assert again.result(timeout=60).payload["seed"] == 0
        finally:
            backend.close()

    def test_deadline_is_per_job_not_per_group(self, ok_probe, nap_probe):
        """Two 0.6 s jobs on one worker each finish inside a 1 s
        deadline: the second job's clock starts when the first is done,
        not when it joined."""
        backend = ProcessPoolBackend(
            workers=1, resubmit_limit=0, job_deadline_s=1.0
        )
        try:
            warm = warm_context(seed=0)
            backend.run(build_plan(ok_probe, warm), warm)  # worker is up
            plans = [
                (build_plan(nap_probe, ctx), ctx)
                for ctx in (warm_context(seed=s) for s in (1, 2))
            ]
            # The supervisor dispatches under this reentrant lock, so
            # both jobs are queued before either is dispatched.
            with backend._lock:
                futures = [backend.submit(plan, ctx) for plan, ctx in plans]
            assert [f.result(timeout=60).payload["seed"] for f in futures] == [
                1, 2
            ]
            counters = backend.stats().counters
            assert counters.get("compute.grouped_jobs", 0) == 1
            assert counters.get("compute.worker_wedged", 0) == 0
        finally:
            backend.close()

    def test_join_leaves_the_running_jobs_clock(self, ok_probe):
        """A job joining a busy worker does not restart the deadline of
        the job that worker is running."""
        backend = ProcessPoolBackend(workers=1)
        try:
            first, second = (warm_context(seed=s) for s in (0, 1))
            # Under the lock the supervisor can neither dispatch nor
            # report the first job done, so it is running throughout.
            with backend._lock:
                backend.submit(build_plan(ok_probe, first), first)
                backend._dispatch()
                worker = next(iter(backend._pool.values()))
                started = worker.started_at
                assert len(worker.job_ids) == 1 and started > 0
                time.sleep(0.01)
                backend.submit(build_plan(ok_probe, second), second)
                backend._dispatch()
                assert len(worker.job_ids) == 2
                assert worker.started_at == started
        finally:
            backend.close()


class TestDrain:
    def test_close_resolves_every_admitted_future(self, ok_probe):
        """Drain-under-failure: futures never dangle, workers never leak."""
        policy = ChaosPolicy(seed=4, kill_worker_rate=0.5, kill_delay_ms=0)
        backend = ProcessPoolBackend(
            workers=2, restart_budget=16, chaos_policy=policy
        )
        contexts = [warm_context(seed=s) for s in range(6)]
        futures = [
            backend.submit(build_plan(ok_probe, ctx), ctx) for ctx in contexts
        ]
        processes = [w.process for w in backend._pool.values()]
        backend.close(wait=True)
        assert all(f.done() for f in futures)
        resolved = [f.result(timeout=0).payload["seed"] for f in futures]
        assert resolved == list(range(6))
        assert backend.alive_workers() == 0
        # The initial workers were joined or terminated, never orphaned.
        assert not any(p.is_alive() for p in processes)


class _SlowTickPool(ProcessPoolBackend):
    _TICK_S = 2.0
    _HEARTBEAT_S = 5.0


class TestEventDrivenDispatch:
    def test_admission_and_close_do_not_wait_out_the_tick(self):
        """Admission and close wake the supervisor: with a 2 s liveness
        tick, each call resolves and an idle close returns far inside
        one tick (the margins are 4x and 2x the tick, not CPU bounds).
        Heartbeats also wake the supervisor, so they are slowed too."""
        backend = _SlowTickPool(workers=1)
        try:
            assert backend.call(abs, -1).result(timeout=60) == 1  # warm-up
            for value in range(2, 7):
                start = time.monotonic()
                assert backend.call(abs, -value).result(timeout=60) == value
                assert time.monotonic() - start < 0.5
        except BaseException:
            backend.close()
            raise
        start = time.monotonic()
        backend.close()
        assert time.monotonic() - start < 1.0
        assert backend.alive_workers() == 0
