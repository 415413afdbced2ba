"""Process-plane shared data plane: parity, group dispatch, chaos.

Covers the shared-memory profile segment riding under
:class:`~repro.engine.compute.ProcessPoolBackend`, the supervisor's
group dispatch, request-scoped solver counters on the thread plane,
the worker-epoch guard against double-merged observations, and the
``shm.kill_in_lock`` crash mode.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro import obs
from repro.chaos import ChaosPolicy
from repro.engine.compute import (
    InlineBackend,
    ProcessPoolBackend,
    ThreadPoolBackend,
    _Job,
    _spec_for,
)
from repro.engine.plan import build_plan
from repro.engine.registry import _REGISTRY, Experiment, ensure_loaded, register
from repro.engine.warm import clear_warm_contexts, warm_context
from repro.faults.model import FaultModel
from repro.xpoint.vmap import _DEFAULT_CACHE, profile_registry


@pytest.fixture(autouse=True)
def _fresh_state():
    # A warm model cache (inherited through fork) lets experiments skip
    # the solves that publish profiles, so clear it alongside the rest.
    clear_warm_contexts()
    profile_registry.clear()
    _DEFAULT_CACHE.clear()
    yield
    clear_warm_contexts()
    profile_registry.clear()
    _DEFAULT_CACHE.clear()


def _ok_driver(config=None, context=None):
    return {"seed": context.seed, "pid": os.getpid()}


@pytest.fixture
def ok_probe():
    register(Experiment(name="_shared_ok", driver=_ok_driver, title="ok"))
    yield "_shared_ok"
    _REGISTRY.pop("_shared_ok", None)


def _leftover_segments():
    return [f for f in os.listdir("/dev/shm") if f.startswith("repro-shm-")]


def _plain(result):
    """Byte-exact comparable payload (the chaos smoke's JSON idiom)."""
    import json

    return json.loads(json.dumps(result.to_plain()))["payload"]


def _ctx(seed, rate=1e-3, solver=None):
    return warm_context(
        seed=seed,
        solver=solver,
        faults=FaultModel.at_rate(rate, seed=seed),
        cache_dir=None,
    )


class TestParity:
    def test_shared_plane_matches_thread_and_inline_bytewise(self):
        """Reference-solver payloads are byte-identical across planes."""
        ensure_loaded()
        seeds = (0, 1)

        backend = ProcessPoolBackend(workers=2)
        try:
            futures = [
                backend.submit(build_plan("fig04", _ctx(s)), _ctx(s))
                for s in seeds
            ]
            shared = [_plain(f.result(timeout=120)) for f in futures]
            counters = backend.stats().counters
        finally:
            backend.close()
        # The plane genuinely carried profiles, and no worker re-solved
        # an artefact a sibling had already published.
        assert counters.get("profile_cache.shared_stores", 0) >= 1
        assert counters.get("profile_cache.duplicate_solves", 0) == 0

        clear_warm_contexts()
        profile_registry.clear()
        threads = ThreadPoolBackend(workers=2)
        try:
            futures = [
                threads.submit(build_plan("fig04", _ctx(s)), _ctx(s))
                for s in seeds
            ]
            threaded = [_plain(f.result(timeout=120)) for f in futures]
        finally:
            threads.close()

        clear_warm_contexts()
        profile_registry.clear()
        inline = InlineBackend()
        expected = [
            _plain(inline.run(build_plan("fig04", _ctx(s)), _ctx(s)))
            for s in seeds
        ]
        assert shared == expected
        assert threaded == expected
        assert _leftover_segments() == []

    def test_shared_plane_off_matches_shipback_path(self):
        """shared_plane=False is the PR-9 pipe path, results unchanged."""
        ensure_loaded()
        backend = ProcessPoolBackend(workers=1, shared_plane=False)
        try:
            result = backend.run(build_plan("fig04", _ctx(3)), _ctx(3))
            counters = backend.stats().counters
        finally:
            backend.close()
        assert "profile_cache.shared_stores" not in counters
        clear_warm_contexts()
        profile_registry.clear()
        expected = InlineBackend().run(build_plan("fig04", _ctx(3)), _ctx(3))
        assert _plain(result) == _plain(expected)


class TestRequestScopedCounters:
    def test_thread_plane_solver_counters_match_inline(self):
        """Solves run in their request's own obs scope, so the thread
        plane's aggregate solver counters equal the inline totals."""
        ensure_loaded()
        seeds = (0, 1)
        names = ("solver.solves", "solver.factorisations")

        threads = ThreadPoolBackend(workers=2)
        try:
            futures = [
                threads.submit(build_plan("fig04", _ctx(s)), _ctx(s))
                for s in seeds
            ]
            for future in futures:
                future.result(timeout=120)
            threaded = threads.stats().counters
        finally:
            threads.close()

        clear_warm_contexts()
        profile_registry.clear()
        _DEFAULT_CACHE.clear()
        inline = InlineBackend()
        local = obs.Collector()
        with obs.collecting(local):
            for s in seeds:
                inline.run(build_plan("fig04", _ctx(s)), _ctx(s))
        expected = local.counters
        assert all(expected.get(name, 0) > 0 for name in names)
        assert {n: threaded.get(n, 0) for n in names} == {
            n: expected[n] for n in names
        }


class TestGroupDispatch:
    def test_surplus_jobs_stack_onto_one_worker(self, ok_probe):
        backend = ProcessPoolBackend(workers=1, group_limit=4)
        try:
            contexts = [warm_context(seed=s) for s in range(4)]
            futures = [
                backend.submit(build_plan(ok_probe, ctx), ctx)
                for ctx in contexts
            ]
            payloads = [f.result(timeout=60).payload for f in futures]
            assert [p["seed"] for p in payloads] == [0, 1, 2, 3]
            counters = backend.stats().counters
            assert counters.get("compute.group_dispatches", 0) >= 1
            assert counters.get("compute.grouped_jobs", 0) >= 2
        finally:
            backend.close()

    def test_duplicates_stack_even_with_idle_workers(self, ok_probe):
        # As many workers as jobs, yet same-identity jobs still stack
        # onto one worker: a group-mate behind its head job is a
        # registry hit, while the same job raced on the spare worker
        # would re-solve the whole profile grid in lockstep.
        backend = ProcessPoolBackend(workers=2)
        try:
            contexts = [warm_context(seed=s) for s in range(2)]
            futures = [
                backend.submit(build_plan(ok_probe, ctx), ctx)
                for ctx in contexts
            ]
            for f in futures:
                f.result(timeout=60)
            counters = backend.stats().counters
            # (grouped_jobs is 2 when both stack in one tick, 1 when a
            # tick lands between the submits and the second job rides
            # the affinity path onto the already-busy worker.)
            assert counters.get("compute.group_dispatches", 0) == 1
            assert counters.get("compute.grouped_jobs", 0) >= 1
        finally:
            backend.close()

    def test_grouped_jobs_coalesce_their_solves(self):
        """Same-config distinct-seed jobs stack onto one worker."""
        ensure_loaded()
        backend = ProcessPoolBackend(workers=1, group_limit=4)
        try:
            # One fault scenario, distinct run seeds: the group key
            # (config, solver, fault-set) matches across all four, so
            # they stack.  Prebuild contexts/plans so the submits land
            # back-to-back and genuinely form a queue surplus.
            faults = FaultModel.at_rate(1e-3, seed=0)
            contexts = [
                warm_context(
                    seed=s, solver="factor-cache",
                    faults=faults, cache_dir=None,
                )
                for s in range(4)
            ]
            plans = [(build_plan("fig04", ctx), ctx) for ctx in contexts]
            futures = [backend.submit(plan, ctx) for plan, ctx in plans]
            for f in futures:
                f.result(timeout=120)
            counters = backend.stats().counters
        finally:
            backend.close()
        assert counters.get("compute.group_dispatches", 0) >= 1


class TestWorkerEpochGuard:
    def test_stale_result_from_old_epoch_is_dropped(self, ok_probe):
        """A late duplicate from a worker the job was requeued away from
        must not resolve the future or double-merge its snapshot."""
        backend = ProcessPoolBackend(workers=1)
        try:
            ctx = warm_context(seed=0)
            plan = build_plan(ok_probe, ctx)
            # Manufacture an in-flight job pinned to epoch 7 (a worker
            # that was declared dead and replaced).
            job = _Job(9999, _spec_for(plan, ctx))
            job.dispatched = True
            job.future.set_running_or_notify_cancel()
            job.wid = 7
            with backend._lock:
                backend._jobs[job.id] = job
            stale_obs = obs.Collector()
            stale_obs.count("epoch.probe")
            live_wid = next(iter(backend._pool))
            backend._handle_message(
                ("done", live_wid,
                 (job.id, ({"seed": -1}, stale_obs.snapshot(), None)))
            )
            counters = backend.stats().counters
            assert counters.get("compute.stale_results", 0) == 1
            # Neither resolved nor merged: the retry still owns the job.
            assert not job.future.done()
            assert counters.get("epoch.probe", 0) == 0
            with backend._lock:
                assert job.id in backend._jobs
            # The matching epoch's result lands normally.
            fresh_obs = obs.Collector()
            fresh_obs.count("epoch.probe")
            backend._handle_message(
                ("done", 7,
                 (job.id, ({"seed": 42}, fresh_obs.snapshot(), None)))
            )
            assert job.future.result(timeout=5) == {"seed": 42}
            counters = backend.stats().counters
            assert counters.get("epoch.probe", 0) == 1
            with backend._lock:
                assert job.id not in backend._jobs
        finally:
            backend.close()

    def test_killed_worker_mid_group_requeues_all_and_converges(
        self, ok_probe
    ):
        # One worker, one grouped batch; the kill takes the whole batch
        # down, every job requeues (isolated, groupless) and converges.
        # Seed 7 is chosen so the deterministic draw chain kills the
        # first batch but never fires three times for any one plan.
        policy = ChaosPolicy(seed=7, kill_worker_rate=0.5, kill_delay_ms=0)
        backend = ProcessPoolBackend(
            workers=1, restart_budget=16, chaos_policy=policy, group_limit=4
        )
        try:
            contexts = [warm_context(seed=s) for s in range(6)]
            futures = [
                backend.submit(build_plan(ok_probe, ctx), ctx)
                for ctx in contexts
            ]
            payloads = [f.result(timeout=120).payload for f in futures]
            assert [p["seed"] for p in payloads] == list(range(6))
            counters = backend.stats().counters
            assert counters.get("compute.worker_deaths", 0) >= 1
            assert counters.get("compute.requeues", 0) >= 1
            # No late-epoch double counts slipped through.
            jobs = counters["compute.jobs"]
            assert counters["compute.completed"] == jobs == 6
        finally:
            backend.close()
        assert backend.alive_workers() == 0


class TestChaos:
    def test_kill_in_lock_degrades_to_shipback_and_converges(self):
        """A worker dying *while holding a stripe write lock* is the
        plane's worst case: the stripe stays locked forever, the retry
        times out on it and degrades to ship-back — results unchanged.
        """
        ensure_loaded()
        policy = ChaosPolicy(seed=0, kill_in_lock_rate=1.0)
        backend = ProcessPoolBackend(
            workers=1, restart_budget=16, chaos_policy=policy
        )
        try:
            result = backend.run(build_plan("fig04", _ctx(5)), _ctx(5))
            counters = backend.stats().counters
        finally:
            backend.close()
        assert counters.get("compute.worker_deaths", 0) >= 1
        # The retry could not publish (corpse holds the lock) and used
        # the ship-back fallback instead.
        assert counters.get("profile_cache.shm_fallbacks", 0) >= 1
        clear_warm_contexts()
        profile_registry.clear()
        expected = InlineBackend().run(build_plan("fig04", _ctx(5)), _ctx(5))
        assert _plain(result) == _plain(expected)
        assert _leftover_segments() == []


class TestRestartReattach:
    def test_replacement_worker_reads_predecessors_profiles(self):
        """A respawned worker reattaches by name and shared-plane-hits
        the profiles its dead predecessor published."""
        ensure_loaded()
        backend = ProcessPoolBackend(workers=1, restart_budget=4)
        try:
            backend.run(build_plan("fig04", _ctx(0)), _ctx(0))
            first = backend.stats().counters
            assert first.get("profile_cache.shared_stores", 0) >= 1
            # Kill the only worker outright; the supervisor replaces it.
            worker = next(iter(backend._pool.values()))
            os.kill(worker.process.pid, signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                with backend._lock:
                    alive = [
                        w
                        for w in backend._pool.values()
                        if w.process.is_alive()
                        and w.process.pid != worker.process.pid
                    ]
                if alive:
                    break
                time.sleep(0.05)
            assert alive, "worker was never replaced"
            # Same parameters again: the cold replacement must find the
            # profiles in the segment, not re-solve them.
            backend.run(build_plan("fig04", _ctx(0)), _ctx(0))
            counters = backend.stats().counters
        finally:
            backend.close()
        assert counters.get("profile_cache.shared_hit", 0) >= 1
        assert counters.get("profile_cache.duplicate_solves", 0) == 0
        assert _leftover_segments() == []
