"""Process plane: parity, profile sharing, group dispatch, epochs.

Covers byte parity of the process, thread and inline planes, profiles
crossing :class:`~repro.engine.compute.ProcessPoolBackend` workers
through the disk cache, the supervisor's group dispatch,
request-scoped solver counters on the thread plane, and the
worker-epoch guard against double-merged observations.
"""

from __future__ import annotations

import asyncio
import os
import signal
import time

import pytest

from repro import obs
from repro.chaos import ChaosPolicy
from repro.circuit.solvers import reset_backend_state
from repro.engine.compute import (
    InlineBackend,
    ProcessPoolBackend,
    ThreadPoolBackend,
    _execute_spec,
    _Job,
    _spec_for,
)
from repro.engine.plan import build_plan
from repro.engine.registry import _REGISTRY, Experiment, ensure_loaded, register
from repro.engine.service import EngineService, ServeOptions
from repro.engine.warm import clear_warm_contexts, warm_context
from repro.faults.model import FaultModel
from repro.xpoint.vmap import _DEFAULT_CACHE, profile_registry


@pytest.fixture(autouse=True)
def _fresh_state():
    # A warm model cache (inherited through fork) lets experiments skip
    # the solves that fill the registry, so clear it alongside the rest.
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


def _plain(result):
    """Byte-exact comparable payload (the chaos smoke's JSON idiom)."""
    import json

    return json.loads(json.dumps(result.to_plain()))["payload"]


def _ctx(seed, rate=1e-3, solver=None, cache_dir=None):
    return warm_context(
        seed=seed,
        solver=solver,
        faults=FaultModel.at_rate(rate, seed=seed),
        cache_dir=cache_dir,
    )


#: Profiles, the WL calibration and the anchor seeds are keyed on the
#: configuration and solver, not the fault model.  fig04 drives 3 V
#: drooped by ``2 * rate``: one voltage quantum per rate, the anchor's
#: own at ``WARM_RATE`` and one apiece at ``RATES``.  A first job at
#: ``WARM_RATE`` solves what every rate shares, so the concurrent jobs
#: after it miss disjoint profiles and never race for one artefact.
WARM_RATE = 1e-3
RATES = (2e-3, 5e-3)


def _fig04_after_warm_job(backend):
    """fig04 payloads at ``RATES``, run concurrently after one job at
    ``WARM_RATE`` has finished."""
    backend.run(build_plan("fig04", _ctx(9, WARM_RATE)), _ctx(9, WARM_RATE))
    contexts = [_ctx(s, rate) for s, rate in enumerate(RATES)]
    futures = [backend.submit(build_plan("fig04", c), c) for c in contexts]
    return [_plain(f.result(timeout=120)) for f in futures]


class TestParity:
    def test_process_plane_matches_thread_and_inline_bytewise(self):
        """Reference-solver payloads are byte-identical across planes."""
        ensure_loaded()

        backend = ProcessPoolBackend(workers=2)
        try:
            processes = _fig04_after_warm_job(backend)
        finally:
            backend.close()

        clear_warm_contexts()
        profile_registry.clear()
        threads = ThreadPoolBackend(workers=2)
        try:
            threaded = _fig04_after_warm_job(threads)
        finally:
            threads.close()

        clear_warm_contexts()
        profile_registry.clear()
        expected = _fig04_after_warm_job(InlineBackend())
        assert processes == expected
        assert threaded == expected

    def test_process_plane_writes_profiles_to_disk_cache(self, tmp_path):
        """Worker-solved profiles are written through to the job's disk
        cache; payloads are unchanged."""
        ensure_loaded()

        def ctx():
            return _ctx(3, cache_dir=tmp_path)

        backend = ProcessPoolBackend(workers=2)
        try:
            result = backend.run(build_plan("fig04", ctx()), ctx())
            counters = backend.stats().counters
        finally:
            backend.close()
        assert counters.get("profile_cache.disk_store", 0) >= 1
        # Profiles no longer ride back on results in any form.
        assert not [n for n in counters if n.startswith("profile_cache.ship")]
        clear_warm_contexts()
        profile_registry.clear()
        _DEFAULT_CACHE.clear()
        expected = InlineBackend().run(build_plan("fig04", _ctx(3)), _ctx(3))
        assert _plain(result) == _plain(expected)


class TestRequestScopedCounters:
    def test_thread_plane_solver_counters_match_inline(self):
        """Solves run in their request's own obs scope, so the thread
        plane's aggregate solver counters equal the inline totals."""
        ensure_loaded()
        names = ("solver.solves", "solver.factorisations")

        threads = ThreadPoolBackend(workers=2)
        try:
            _fig04_after_warm_job(threads)
            threaded = threads.stats().counters
        finally:
            threads.close()

        clear_warm_contexts()
        profile_registry.clear()
        _DEFAULT_CACHE.clear()
        local = obs.Collector()
        with obs.collecting(local):
            _fig04_after_warm_job(InlineBackend())
        expected = local.counters
        assert all(expected.get(name, 0) > 0 for name in names)
        assert {n: threaded.get(n, 0) for n in names} == {
            n: expected[n] for n in names
        }


def _submit_held(backend, name, contexts):
    """Submit one plan per context, all queued before any dispatches.

    Admission wakes the supervisor at once, so a trivial head job could
    finish before its follower is admitted.  The supervisor dispatches
    under the backend's lock; holding it across the submits (it is
    reentrant, so they can take it too) makes all the jobs queue-mates.
    """
    plans = [(build_plan(name, ctx), ctx) for ctx in contexts]
    with backend._lock:
        return [backend.submit(plan, ctx) for plan, ctx in plans]


class TestGroupDispatch:
    def test_surplus_jobs_stack_onto_one_worker(self, ok_probe):
        backend = ProcessPoolBackend(workers=1)
        try:
            contexts = [warm_context(seed=s) for s in range(4)]
            futures = _submit_held(backend, ok_probe, contexts)
            payloads = [f.result(timeout=60).payload for f in futures]
            assert [p["seed"] for p in payloads] == [0, 1, 2, 3]
            # The first job goes to the idle worker, the rest join it.
            counters = backend.stats().counters
            assert counters.get("compute.grouped_jobs", 0) == 3
        finally:
            backend.close()

    def test_duplicates_stack_even_with_idle_workers(self, ok_probe):
        # As many workers as jobs, yet same-identity jobs still stack
        # onto one worker: a group-mate behind its running job is a
        # registry hit, while the same job raced on the spare worker
        # would re-solve the whole profile grid in lockstep.
        backend = ProcessPoolBackend(workers=2)
        try:
            contexts = [warm_context(seed=s) for s in range(2)]
            futures = _submit_held(backend, ok_probe, contexts)
            pids = {f.result(timeout=60).payload["pid"] for f in futures}
            assert len(pids) == 1
            counters = backend.stats().counters
            assert counters.get("compute.grouped_jobs", 0) == 1
        finally:
            backend.close()

    def test_full_group_overflows_to_the_idle_worker(self, ok_probe):
        """A worker holds at most ``_GROUP_LIMIT`` (4) jobs: the fifth
        group-mate goes to the idle worker."""
        backend = ProcessPoolBackend(workers=2)
        try:
            contexts = [warm_context(seed=s) for s in range(5)]
            futures = _submit_held(backend, ok_probe, contexts)
            pids = [f.result(timeout=60).payload["pid"] for f in futures]
            assert sorted(pids.count(pid) for pid in set(pids)) == [1, 4]
            assert backend.stats().counters.get("compute.grouped_jobs", 0) == 3
        finally:
            backend.close()

    def test_other_group_takes_the_idle_worker(self, ok_probe):
        """``[G, H, G]``: H cannot join G's worker, so it takes the idle
        one, and the second G is still considered and joins the first."""
        backend = ProcessPoolBackend(workers=2)
        try:
            contexts = [
                warm_context(seed=0),
                warm_context(seed=1, faults=FaultModel.at_rate(1e-3, seed=1)),
                warm_context(seed=2),
            ]
            futures = _submit_held(backend, ok_probe, contexts)
            g0, h, g2 = (f.result(timeout=60).payload["pid"] for f in futures)
            assert g0 == g2 != h
            assert backend.stats().counters.get("compute.grouped_jobs", 0) == 1
        finally:
            backend.close()

    def test_grouped_jobs_coalesce_their_solves(self):
        """Same-config distinct-seed jobs stack onto one worker."""
        ensure_loaded()
        backend = ProcessPoolBackend(workers=1)
        try:
            # One fault scenario, distinct run seeds: the group key
            # (config, solver, fault-set) matches across all four, so
            # they stack.  Prebuild contexts/plans so the submits land
            # back-to-back and genuinely form a queue surplus.
            faults = FaultModel.at_rate(1e-3, seed=0)
            contexts = [
                warm_context(
                    seed=s, solver="batched",
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
        assert counters.get("compute.grouped_jobs", 0) >= 1

    def test_duplicate_bursts_solve_once_per_identity(self):
        """Bursts of concurrent duplicate requests through the service
        cost one request's solves per identity, not one per request."""
        ensure_loaded()
        reset_backend_state()
        workers, duplicates = 4, 4
        # Profiles are shared by every fault identity of the array, so
        # each stage runs at a rate of its own.  After the warm-up rate,
        # the probe's and each burst's fig07b miss disjoint quanta.
        warm_rate, probe_rate, burst_rates = 1e-3, 3e-3, (6e-3, 9e-3, 0.12)

        def request(seed, rate):
            return {
                "op": "run", "experiment": "fig07b",
                "seed": seed, "fault_rate": rate,
            }

        async def counters_of(service, *bursts):
            before = service.stats()["counters"]
            for burst in bursts:
                docs = await asyncio.gather(
                    *(service.submit(request(*item)) for item in burst)
                )
                assert all(doc.get("ok") for doc in docs), docs
            after = service.stats()["counters"]
            return {k: v - before.get(k, 0) for k, v in after.items()}

        async def drive():
            service = EngineService(
                ServeOptions(
                    cache_dir=None, compute_plane="process",
                    compute_workers=workers, solver="batched",
                )
            )
            try:
                # Warm every worker on identities of its own, so the
                # probe and the bursts meet workers past their one-off
                # first-request solves.
                await counters_of(
                    service, [(1000 + i, warm_rate) for i in range(workers)]
                )
                probe = await counters_of(service, [(999, probe_rate)])
                # One identity per burst, its duplicates concurrent;
                # each burst drains before the next starts.
                timed = await counters_of(
                    service,
                    *(
                        [(seed, rate)] * duplicates
                        for seed, rate in enumerate(burst_rates)
                    ),
                )
            finally:
                await service.close(drain=True)
            return probe, timed

        probe, timed = asyncio.run(drive())
        one_request = probe.get("solver.solves", 0)
        assert one_request > 0
        requests = len(burst_rates) * duplicates
        # At least 2x fewer solves than every request solving alone.
        assert timed.get("solver.solves", 0) <= requests * one_request / 2
        # At least one duplicate per burst joined a running group-mate.
        assert timed.get("compute.grouped_jobs", 0) >= len(burst_rates)


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
            job = _Job(
                9999, _execute_spec, (_spec_for(plan, ctx),),
                name=f"plan {plan.name!r}", finish=backend._finish_plan,
            )
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
                 (job.id, ({"seed": -1}, stale_obs.snapshot())))
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
                 (job.id, ({"seed": 42}, fresh_obs.snapshot())))
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
        # One worker holding a group; a kill takes every job it holds
        # down, every job requeues (isolated, groupless) and converges.
        # Seed 7 is chosen so the deterministic draw chain kills the
        # first group but never fires three times for any one plan.
        policy = ChaosPolicy(seed=7, kill_worker_rate=0.5, kill_delay_ms=0)
        backend = ProcessPoolBackend(
            workers=1, restart_budget=16, chaos_policy=policy
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


class TestRestartReattach:
    def test_replacement_worker_reads_predecessors_profiles(self, tmp_path):
        """A respawned worker reads the profiles its dead predecessor
        solved from the disk cache instead of re-solving them."""
        ensure_loaded()
        backend = ProcessPoolBackend(workers=1, restart_budget=4)
        try:
            backend.run(
                build_plan("fig04", _ctx(0, cache_dir=tmp_path)),
                _ctx(0, cache_dir=tmp_path),
            )
            assert backend.stats().counters.get("profile_cache.disk_store", 0) >= 1
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
            # Another seed of the same rate: a new payload key (so not a
            # result-cache hit) over the same profiles, which the cold
            # replacement must find on disk, not re-solve.
            before = backend.stats().counters
            backend.run(
                build_plan("fig04", _ctx(1, cache_dir=tmp_path)),
                _ctx(1, cache_dir=tmp_path),
            )
            after = backend.stats().counters
        finally:
            backend.close()
        delta = {k: v - before.get(k, 0) for k, v in after.items()}
        assert delta.get("profile_cache.disk_hit", 0) >= 1
        assert delta.get("solver.solves", 0) == 0
