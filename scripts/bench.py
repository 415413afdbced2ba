#!/usr/bin/env python3
"""Performance baseline harness: wall time, peak RSS and obs counters.

Runs a fixed matrix of circuit-level experiments with a profiling
collector attached and writes a ``BENCH_<date>.json`` document at the
repository root.  Committing a snapshot gives future optimisation work
a baseline to diff against: wall time per experiment, the process peak
RSS, and the full counter/span profile (solver factorisations, cache
hit rates, ...), so a regression shows up as *which layer* got slower,
not just a bigger total.

Usage::

    python scripts/bench.py                    # full matrix
    python scripts/bench.py --quick            # CI smoke subset
    python scripts/bench.py --out custom.json
    python scripts/bench.py --validate BENCH_2026-08-06.json
    python scripts/bench.py --quick --compare BENCH_2026-08-06.json \
        --fail-over 1.5                        # regression gate (CI)

Experiments run with the cache disabled (the default
:class:`~repro.engine.context.RunContext` uses a ``NullCache``), so
timings measure real compute, not disk reads.  The experiment matrix
runs under ``--matrix-solver`` (default ``factor-cache``, the
production backend); every entry records which solver produced it.
Before each timed entry all cross-solve solver state (structure/LU
caches, warm starts) and the process-wide profile registry are reset,
so entries stay independent of matrix order.

Schema 4 adds a ``service_matrix``: the same experiment requested
concurrently through the ``repro serve`` request/compute planes
(requests/s, p50/p99 latency) against a serialized one-shot baseline
that resets all warm state between requests.

Schema 5 adds a ``recovery_matrix``: the same workload driven through
the supervised process pool three times — steady state, under a seeded
:class:`~repro.chaos.ChaosPolicy` that kills workers mid-solve, and
against a fully broken pool — recording throughput degradation under
kills and the time for the degradation ladder to answer a request after
a breaker trip.

Schema 6 adds a ``sweep_matrix``: the columnar sweep store's ETL path
(``repro.sweepstore``) driven with a scripted 1e5-row fault-sweep grid
per storage backend — ingest rows/s, combine/query wall, the cross-run
design-point join, and the canonical-table fingerprint certifying
byte-identical results between parquet and the npz fallback.

Schema 7 adds an ``mc_matrix``: a K=64 Monte Carlo variability
ensemble (:mod:`repro.mc`) through the ``batched`` backend's
``solve_ensemble``, measured in samples/s against the per-instance
reference path (a fresh fault-keyed model per instance, so every
instance re-solves its own profile grid and WL calibration).  The
validator holds the amortization ratio at >= 5x.

Schema 8 adds a ``shared_matrix``: a duplicate-heavy request mix
(distinct fault identities, each requested several times) on the
process compute plane with the shared-memory profile plane and group
dispatch enabled, against the same mix on the ship-back plane with
both disabled — the pre-shared-plane process backend.  The validator
holds the throughput speedup at >= 2x, the coalesce ratio (jobs per
group-dispatched solve stream) at >= 2, and ``duplicate_solves`` (a
worker re-solving a profile a sibling already published) at ~0.

Schema 9 drops ``service_matrix.service.coalesce_ratio``: the
thread-plane solve coalescer it measured is gone (solver backends
serialise their own solves with a lock), so it would always read 1.

``--compare OLD.json`` prints a speedup table (wall time, peak RSS,
factorisation counts) of this run against a previous document and, with
``--fail-over R``, exits non-zero if any shared experiment got more
than ``R`` times slower — the CI regression gate.
"""

from __future__ import annotations

import argparse
import datetime
import json
import pathlib
import platform
import resource
import sys
import time

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro import RunContext, __version__, run_experiment  # noqa: E402
from repro import obs  # noqa: E402
from repro.circuit.solvers import (  # noqa: E402
    available_solvers,
    reset_backend_state,
)
from repro.config import default_config  # noqa: E402
from repro.xpoint.vmap import ArrayIRModel, ModelCache, profile_registry  # noqa: E402

#: Circuit-level experiments only: deterministic, no trace generation,
#: and together they exercise every instrumented layer.
FULL_MATRIX = ("fig01e", "fig04", "fig07b", "fig09", "fig11a", "fig11", "fig13")
QUICK_MATRIX = ("fig01e", "fig07b", "fig11a")

#: Drive levels of the solver-matrix workload: a 512x512 RESET-latency
#: sweep (per-level BL profile grid + WL calibration), the hot path the
#: accelerated backends exist for.
SOLVER_SWEEP_VOLTAGES = (3.0, 3.1, 3.2, 3.3)

#: Matrix entries are timed under this backend unless overridden.
DEFAULT_MATRIX_SOLVER = "factor-cache"

#: Service-matrix workload: concurrent requests for this experiment,
#: distinct seeds, measured against serialized one-shot invocations.
SERVICE_EXPERIMENT = "fig11a"
SERVICE_REQUESTS = 8
SERVICE_WORKERS = 4

#: Recovery-matrix chaos: seed 2 against the ``fig11a`` request tokens
#: kills half the first processing attempts and every plan converges
#: within the default resubmission budget, so the during-kill phase
#: always completes (the decisions are pure functions of the seed and
#: token — rerunning the bench replays the identical failure schedule).
RECOVERY_CHAOS_SEED = 2
RECOVERY_KILL_RATE = 0.5

#: Seeds for the untimed warm-up round of each recovery phase, chosen
#: so the chaos policy above never kills them (their tokens draw clean
#: on every attempt): warm-up cannot leak deaths into the timed phase.
RECOVERY_WARM_SEEDS = (115, 127, 128, 153)

#: Sweep-matrix workload shape: a scripted fault-sweep design-space
#: grid of SWEEP_CONFIGS x SWEEP_SEEDS x len(SWEEP_SOLVERS) result
#: documents, each carrying len(SWEEP_TECHNIQUES) x len(SWEEP_RATES)
#: margin cells — 100 000 typed rows through the sweep-store ETL.
SWEEP_TECHNIQUES = ("Base", "DRVR", "PR", "DRVR+PR")
SWEEP_RATES = tuple(round(i * 4e-5, 12) for i in range(25))
SWEEP_SOLVERS = ("reference", "batched")
SWEEP_SEEDS = 50
SWEEP_CONFIGS = 10
SWEEP_SHARD_ROWS = 5_000

#: MC-matrix workload: a K-instance Monte Carlo variability ensemble
#: (MC_ARRAY_SIZE array, composite faults at MC_RATE) through the
#: ``batched`` backend's ``solve_ensemble``, compared against the
#: per-instance reference path — a fresh fault-keyed model per
#: instance (timed on a subset and extrapolated), so each instance
#: pays its own profile-grid and WL-calibration solves.
MC_ARRAY_SIZE = 64
MC_SAMPLES = 64
MC_RATE = 1e-2
MC_SEED = 11
MC_REFERENCE_INSTANCES = 8
MC_MIN_AMORTIZATION = 5.0

#: Shared-matrix workload: SHARED_IDENTITIES distinct fault identities
#: (per-seed fault models at SHARED_FAULT_RATE), each requested as a
#: burst of SHARED_DUPLICATES concurrent duplicates — the
#: duplicate-heavy stream the shared-memory data plane and
#: process-plane group dispatch exist for.  The baseline leg runs
#: the identical bursts with both disabled: the ship-back process
#: plane as it was before the shared segment existed.
#: fig07b is the most solve-dominated quick experiment (its profile
#: grid is ~96% of a cold run; a profile-warm duplicate is ~25x
#: cheaper), so the mix isolates what the data plane actually
#: eliminates — duplicate solve work — rather than per-request python.
SHARED_EXPERIMENT = "fig07b"
#: Each burst is one identity requested SHARED_DUPLICATES times at
#: once, and bursts run back to back (the next starts when the last
#: finishes).  That shape is deterministic for both legs: the
#: baseline fans every burst across all idle workers, which each
#: cold-solve the same grids in lockstep, while group dispatch stacks
#: the burst behind one head solve.  A fully interleaved stream
#: measures the same work but lets the baseline's completion order
#: occasionally phase-lock identities onto warm workers, which makes
#: its wall time bimodal — useless for a regression gate.
SHARED_IDENTITIES = 3
SHARED_DUPLICATES = 4
SHARED_FAULT_RATE = 1e-3
SHARED_MIN_SPEEDUP = 2.0
SHARED_MIN_COALESCE = 2.0
#: duplicate_solves counts a worker re-solving a profile a sibling
#: already published to the segment — the waste the plane eliminates.
#: A scheduling race can let a stray pair through; more means the
#: plane is not being consulted.
SHARED_MAX_DUPLICATE_SOLVES = 2

#: v4: adds ``service_matrix`` (concurrent request throughput through
#: the ``repro serve`` planes vs serialized one-shot runs).
#: v5: adds ``recovery_matrix`` (steady vs during-kill throughput on
#: the supervised process pool, time-to-recover after a breaker trip).
#: v6: adds ``sweep_matrix`` (columnar sweep-store ETL: ingest rate,
#: combine/query/cross-run-join latency at 1e5 rows, backend parity).
#: v7: adds ``mc_matrix`` (K=64 Monte Carlo ensemble samples/s on the
#: batched backend vs per-instance reference solves, >= 5x gate).
#: v8: adds ``shared_matrix`` (duplicate-heavy request mix on the
#: process plane: shared-memory profile plane + group dispatch vs
#: the ship-back baseline, >= 2x gate, duplicate_solves ~0).
#: v9: drops ``service_matrix.service.coalesce_ratio`` (the solve
#: coalescer it measured was removed).
SCHEMA = 9


def _reset_shared_state() -> None:
    """Drop all cross-solve state so the next timing starts cold.

    Solver backends keep structure/LU caches and warm-start vectors
    across solves; the profile registry shares solved profiles across
    models.  Both would let entry N ride on entry N-1's work and make
    timings depend on matrix order.
    """
    reset_backend_state()
    profile_registry.clear()


def _warm_process() -> None:
    """Pay one-time process costs before any timed entry.

    The first sparse solve in a process is substantially slower than
    steady state (SuperLU initialisation, BLAS thread-pool spin-up,
    allocator growth).  Without this warm-up the first solver-using
    entry absorbs that cost, so a matrix subset (``--quick``) times its
    first entry differently from the full matrix — the fig07b
    order-dependence regression.  One small solve per backend outside
    the timers makes every entry steady-state; the shared-state reset
    afterwards keeps the timed entries cold.
    """
    from repro.circuit.line_model import ReducedArrayModel

    config = default_config(size=64)
    for solver in available_solvers():
        model = ReducedArrayModel(config, solver=solver)
        model.solve_reset(0, (0,), config.cell.v_reset)
    _reset_shared_state()


def _peak_rss_bytes() -> int:
    """Process peak resident set size so far, in bytes."""
    ru_maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    return ru_maxrss if sys.platform == "darwin" else ru_maxrss * 1024


def run_matrix(names: tuple[str, ...], solver: str) -> list[dict]:
    entries = []
    for name in names:
        collector = obs.Collector()
        # A fresh model cache per entry — plus the shared-state reset —
        # keeps each timing independent of the matrix order (no warm
        # IR-drop models, factorisations or profiles from earlier
        # figures).
        _reset_shared_state()
        context = RunContext(
            collector=collector, model_cache=ModelCache(), solver=solver
        )
        start = time.perf_counter()
        result = run_experiment(name, context)
        wall_s = time.perf_counter() - start
        profile = result.extra["profile"]
        entries.append(
            {
                "experiment": name,
                "solver": solver,
                "wall_s": round(wall_s, 6),
                "peak_rss_bytes": _peak_rss_bytes(),
                "counters": profile["counters"],
                "spans": profile["spans"],
            }
        )
        print(
            f"{name:10s} {wall_s:8.3f}s  "
            f"rss={_peak_rss_bytes() / 2**20:7.1f} MiB",
            flush=True,
        )
    return entries


def run_solver_matrix() -> list[dict]:
    """Time the 512x512 RESET-latency sweep under every solver backend.

    Each backend gets a fresh :class:`ArrayIRModel` (no warm profile
    caches — shared solver/registry state is reset per backend) and runs
    the same sweep; ``speedup_vs_reference`` is the reference wall time
    divided by the backend's.
    """
    config = default_config()
    entries = []
    reference_wall = None
    for solver in available_solvers():
        collector = obs.Collector()
        _reset_shared_state()
        model = ArrayIRModel(config, solver=solver)
        with obs.collecting(collector):
            start = time.perf_counter()
            for v in SOLVER_SWEEP_VOLTAGES:
                model.latency_map(v)
            wall_s = time.perf_counter() - start
        if solver == "reference":
            reference_wall = wall_s
        entries.append(
            {
                "solver": solver,
                "wall_s": round(wall_s, 6),
                "counters": collector.snapshot().to_plain()["counters"],
            }
        )
        print(f"solver:{solver:13s} {wall_s:8.3f}s", flush=True)
    for entry in entries:
        entry["speedup_vs_reference"] = round(
            reference_wall / entry["wall_s"], 3
        )
        if entry["solver"] != "reference":
            print(
                f"solver:{entry['solver']:13s} "
                f"{entry['speedup_vs_reference']:5.2f}x vs reference",
                flush=True,
            )
    return entries


def _latency_stats(latencies: list[float], wall_s: float) -> dict:
    """Throughput + latency percentiles of one saturation run."""
    ordered = sorted(latencies)
    p99_index = max(0, -(-99 * len(ordered) // 100) - 1)  # ceil, 1-based
    return {
        "wall_s": round(wall_s, 6),
        "requests_per_s": round(len(ordered) / wall_s, 3) if wall_s else 0.0,
        "p50_s": round(ordered[len(ordered) // 2], 6),
        "p99_s": round(ordered[p99_index], 6),
    }


def run_service_matrix() -> dict:
    """Concurrent service throughput vs serialized one-shot invocations.

    The serialized baseline emulates today's workflow — one CLI
    invocation per request, nothing warm between them: shared solver
    state, the profile registry and warm contexts are dropped before
    *each* request and every request gets a fresh model cache.  The
    service side drives the same requests concurrently through the
    in-process request plane (admission, deadline machinery, thread-pool
    compute), where warm contexts and solver caches amortise work
    across the stream.
    """
    import asyncio

    from repro.engine.service import EngineService, ServeOptions
    from repro.engine.warm import clear_warm_contexts

    name = SERVICE_EXPERIMENT
    seeds = list(range(SERVICE_REQUESTS))

    clear_warm_contexts()
    latencies = []
    serial_start = time.perf_counter()
    for seed in seeds:
        _reset_shared_state()
        clear_warm_contexts()
        context = RunContext(
            seed=seed, model_cache=ModelCache(), solver=DEFAULT_MATRIX_SOLVER
        )
        start = time.perf_counter()
        run_experiment(name, context)
        latencies.append(time.perf_counter() - start)
    serialized_wall = time.perf_counter() - serial_start
    serialized = _latency_stats(latencies, serialized_wall)

    _reset_shared_state()
    clear_warm_contexts()

    async def drive() -> tuple[list[float], float]:
        service = EngineService(
            ServeOptions(
                cache_dir=None,
                compute_workers=SERVICE_WORKERS,
                solver=DEFAULT_MATRIX_SOLVER,
            )
        )
        try:
            request_latencies = [0.0] * len(seeds)

            async def one(index: int, seed: int) -> None:
                start = time.perf_counter()
                doc = await service.submit(
                    {"op": "run", "experiment": name, "seed": seed}
                )
                if not doc.get("ok"):
                    raise RuntimeError(f"service request failed: {doc}")
                request_latencies[index] = time.perf_counter() - start

            start = time.perf_counter()
            await asyncio.gather(
                *(one(i, seed) for i, seed in enumerate(seeds))
            )
            wall = time.perf_counter() - start
        finally:
            await service.close(drain=True)
        return request_latencies, wall

    request_latencies, service_wall = asyncio.run(drive())
    service_stats = _latency_stats(request_latencies, service_wall)
    speedup = round(serialized_wall / service_wall, 3) if service_wall else 0.0
    print(
        f"service:   {SERVICE_REQUESTS} x {name} serialized "
        f"{serialized_wall:7.3f}s -> concurrent {service_wall:7.3f}s "
        f"({speedup:.2f}x)",
        flush=True,
    )
    return {
        "workload": (
            f"{SERVICE_REQUESTS} concurrent '{name}' requests (distinct "
            "seeds) through the request/compute planes vs serialized "
            "one-shot invocations"
        ),
        "experiment": name,
        "requests": SERVICE_REQUESTS,
        "compute_workers": SERVICE_WORKERS,
        "solver": DEFAULT_MATRIX_SOLVER,
        "serialized": serialized,
        "service": service_stats,
        "speedup_vs_serialized": speedup,
    }


def run_recovery_matrix() -> dict:
    """Process-pool throughput under worker kills, and breaker recovery.

    Three phases through the in-process service, all on the process
    compute plane:

    * **steady** — the service-matrix workload with healthy workers:
      the baseline the degraded phases are measured against.
    * **during_kill** — the identical workload under a seeded
      :class:`~repro.chaos.ChaosPolicy` that ``os._exit``\\ s workers
      mid-solve on roughly half the first processing attempts.  The
      supervisor replaces the dead workers and resubmits their plans,
      so every request still completes; the throughput ratio against
      steady state is the price of that supervision.
    * **breaker_trip** — one request against a pool whose every attempt
      dies with no restart budget.  The pool breaks, the circuit
      breaker trips the service down to the thread rung, and the plan
      is re-executed there.  ``time_to_recover_s`` is the full span
      from submission to the successful response — what a client
      actually waits through a trip.
    """
    import asyncio

    from repro.chaos import ChaosPolicy
    from repro.engine.service import EngineService, ServeOptions
    from repro.engine.warm import clear_warm_contexts

    name = SERVICE_EXPERIMENT
    seeds = list(range(SERVICE_REQUESTS))

    def drive(options: "ServeOptions") -> tuple[list[float], float, dict]:
        _reset_shared_state()
        clear_warm_contexts()

        async def go() -> tuple[list[float], float, dict]:
            service = EngineService(options)
            try:
                latencies = [0.0] * len(seeds)

                async def one(index: int, seed: int) -> None:
                    start = time.perf_counter()
                    doc = await service.submit(
                        {"op": "run", "experiment": name, "seed": seed}
                    )
                    if not doc.get("ok"):
                        raise RuntimeError(f"service request failed: {doc}")
                    latencies[index] = time.perf_counter() - start

                # Untimed warm-up round first, one request per worker:
                # the initial requests absorb worker spawn and
                # per-worker warm-context costs, which would otherwise
                # charge pool boot to the steady phase and make the
                # kill phase look *faster* than healthy.  The warm-up
                # seeds are ones the recovery chaos policy never kills,
                # so the during-kill death/requeue counters only count
                # the timed round.
                warmups = await asyncio.gather(
                    *(
                        service.submit(
                            {"op": "run", "experiment": name, "seed": seed}
                        )
                        for seed in RECOVERY_WARM_SEEDS[:SERVICE_WORKERS]
                    )
                )
                for warm in warmups:
                    if not warm.get("ok"):
                        raise RuntimeError(f"warm-up request failed: {warm}")

                start = time.perf_counter()
                await asyncio.gather(
                    *(one(i, seed) for i, seed in enumerate(seeds))
                )
                wall = time.perf_counter() - start
                stats = service.stats()
            finally:
                await service.close(drain=True)
            return latencies, wall, stats

        return asyncio.run(go())

    steady_options = ServeOptions(
        cache_dir=None,
        compute_plane="process",
        compute_workers=SERVICE_WORKERS,
        solver=DEFAULT_MATRIX_SOLVER,
    )
    latencies, wall, _ = drive(steady_options)
    steady = _latency_stats(latencies, wall)

    policy = ChaosPolicy(
        seed=RECOVERY_CHAOS_SEED,
        kill_worker_rate=RECOVERY_KILL_RATE,
        kill_delay_ms=0,
    )
    kill_options = ServeOptions(
        cache_dir=None,
        compute_plane="process",
        compute_workers=SERVICE_WORKERS,
        restart_budget=16,
        solver=DEFAULT_MATRIX_SOLVER,
        chaos=policy,
    )
    latencies, wall, stats = drive(kill_options)
    during_kill = _latency_stats(latencies, wall)
    counters = stats.get("counters", {})
    during_kill["worker_deaths"] = counters.get("compute.worker_deaths", 0)
    during_kill["requeues"] = counters.get("compute.requeues", 0)

    # Breaker trip: one worker, no restart budget, every attempt killed.
    # The lone request must ride the ladder down to the thread rung.
    _reset_shared_state()
    clear_warm_contexts()

    async def trip() -> tuple[float, dict]:
        service = EngineService(
            ServeOptions(
                cache_dir=None,
                compute_plane="process",
                compute_workers=1,
                restart_budget=0,
                breaker_cooldown_s=60.0,
                solver=DEFAULT_MATRIX_SOLVER,
                chaos=ChaosPolicy(
                    seed=0, kill_worker_rate=1.0, kill_delay_ms=0
                ),
            )
        )
        try:
            start = time.perf_counter()
            doc = await service.submit(
                {"op": "run", "experiment": name, "seed": 0}
            )
            elapsed = time.perf_counter() - start
            if not doc.get("ok"):
                raise RuntimeError(f"post-trip request failed: {doc}")
            stats = service.stats()
        finally:
            await service.close(drain=True)
        return elapsed, stats

    recover_s, trip_stats = asyncio.run(trip())
    breaker = trip_stats.get("breaker", {})

    ratio = (
        round(during_kill["requests_per_s"] / steady["requests_per_s"], 3)
        if steady["requests_per_s"]
        else 0.0
    )
    print(
        f"recovery:  {SERVICE_REQUESTS} x {name} steady "
        f"{steady['wall_s']:7.3f}s -> during-kill "
        f"{during_kill['wall_s']:7.3f}s "
        f"({during_kill['worker_deaths']} worker deaths, "
        f"throughput ratio {ratio:.2f}); breaker trip answered in "
        f"{recover_s:.3f}s on the {breaker.get('rung', '?')} rung",
        flush=True,
    )
    return {
        "workload": (
            f"{SERVICE_REQUESTS} concurrent '{name}' requests on the "
            "supervised process pool: healthy, under seeded worker "
            "kills, and across a breaker trip to the thread rung"
        ),
        "experiment": name,
        "requests": SERVICE_REQUESTS,
        "compute_workers": SERVICE_WORKERS,
        "solver": DEFAULT_MATRIX_SOLVER,
        "chaos_spec": policy.spec(),
        "steady": steady,
        "during_kill": during_kill,
        "throughput_ratio": ratio,
        "breaker_trip": {
            "time_to_recover_s": round(recover_s, 6),
            "trips": breaker.get("trips", 0),
            "rung_after": breaker.get("rung", ""),
        },
    }


def _sweep_documents() -> "list[dict]":
    """The scripted fault-sweep grid: one result document per run cell.

    Metric values are a deterministic function of the grid coordinates
    (no RNG): re-running the bench re-ingests byte-identical rows, so
    the recorded table fingerprint is stable across runs and machines.
    """
    documents = []
    for config_i in range(SWEEP_CONFIGS):
        for seed in range(SWEEP_SEEDS):
            margins = {}
            for t, technique in enumerate(SWEEP_TECHNIQUES):
                for rate in SWEEP_RATES:
                    margins[f"{technique} @ {rate:g}"] = {
                        "latency_us": round(
                            1.0 + 0.1 * t + rate * 1e3 + 0.001 * seed, 9
                        ),
                        "min_endurance": round(1e6 / (1 + t + rate * 1e4), 6),
                        "fail_fraction": round(rate * (4 - t) * 10.0, 9),
                        "stuck_fraction": rate,
                    }
            documents.append(
                {
                    "experiment": "fault_sweep",
                    "meta": {
                        "config_hash": f"cfg{config_i:03d}",
                        "seed": seed,
                        "wall_s": 0.01,
                    },
                    "payload": {"margins": margins},
                }
            )
    return documents


def run_sweep_matrix() -> dict:
    """Sweep-store ETL throughput: ingest, combine, query, cross-run join.

    Runs the identical 1e5-row scripted fault-sweep through every
    available storage backend (npz always; parquet when pyarrow is
    installed) and records per-backend ingest rate, combine wall,
    filtered-query latency, and the headline cross-run join — matching
    every (config, technique, seed, cell) of one solver against the
    other solver's run of the same design point.  Equal canonical-table
    fingerprints across backends certify byte-identical query results.
    """
    import tempfile

    from repro.sweepstore import (
        SweepStore,
        available_backends,
        join_tables,
        rows_from_result,
    )

    documents = _sweep_documents()
    entries = []
    fingerprints = {}
    total_rows = 0
    for backend in available_backends():
        with tempfile.TemporaryDirectory(prefix="repro-sweep-") as tmp:
            store = SweepStore(tmp, backend=backend, grace_s=0.0)
            batch: list[dict] = []
            rows = 0
            start = time.perf_counter()
            for document in documents:
                for solver in SWEEP_SOLVERS:
                    batch.extend(rows_from_result(document, solver=solver))
                if len(batch) >= SWEEP_SHARD_ROWS:
                    store.append(batch)
                    rows += len(batch)
                    batch = []
            if batch:
                store.append(batch)
                rows += len(batch)
            ingest_s = time.perf_counter() - start

            start = time.perf_counter()
            report = store.combine()
            combine_s = time.perf_counter() - start
            assert report.rows == rows, "combine lost or duplicated rows"

            start = time.perf_counter()
            filtered = store.query(
                where=[
                    ("technique", "==", "DRVR+PR"),
                    ("fault_rate", "<=", 5e-4),
                ],
                columns=["cell", "latency_us", "min_endurance"],
            )
            query_s = time.perf_counter() - start
            query_rows = len(filtered["cell"])

            start = time.perf_counter()
            left = store.query(where=[("solver", "==", SWEEP_SOLVERS[0])])
            right = store.query(where=[("solver", "==", SWEEP_SOLVERS[1])])
            joined = join_tables(
                left,
                right,
                on=("config_hash", "experiment", "technique", "seed", "cell"),
                select_left=["latency_us"],
                select_right=["latency_us"],
            )
            join_s = time.perf_counter() - start
            join_rows = len(joined["cell"])

            fingerprint = store.table().fingerprint()
        fingerprints[backend] = fingerprint
        total_rows = rows
        entries.append(
            {
                "backend": backend,
                "rows": rows,
                "ingest_s": round(ingest_s, 6),
                "ingest_rows_per_s": round(rows / ingest_s, 1),
                "combine_s": round(combine_s, 6),
                "query_s": round(query_s, 6),
                "query_rows": query_rows,
                "join_s": round(join_s, 6),
                "join_rows": join_rows,
                "fingerprint": fingerprint,
            }
        )
        print(
            f"sweep:{backend:8s} {rows} rows ingested in {ingest_s:7.3f}s "
            f"({rows / ingest_s:9.0f} rows/s), combine {combine_s:6.3f}s, "
            f"query {query_s:6.3f}s, cross-run join {join_s:6.3f}s "
            f"({join_rows} matches)",
            flush=True,
        )
    return {
        "workload": (
            f"scripted fault-sweep ETL: {SWEEP_CONFIGS} configs x "
            f"{SWEEP_SEEDS} seeds x {len(SWEEP_SOLVERS)} solvers x "
            f"{len(SWEEP_TECHNIQUES)} techniques x {len(SWEEP_RATES)} "
            "fault rates through ingest/combine/query and a cross-solver "
            "design-point join"
        ),
        "rows": total_rows,
        "backends": entries,
        "parity": len(set(fingerprints.values())) == 1,
    }


def run_mc_matrix() -> dict:
    """Monte Carlo ensemble throughput vs per-instance reference solves.

    The ensemble leg stacks ``MC_SAMPLES`` independently seeded array
    instances through :func:`repro.mc.run_ensemble` on the ``batched``
    backend: all missing profile quanta solve as one flat batch over
    the shared sparsity pattern.  The reference leg replays what the
    repo did before ``repro.mc`` existed — a fresh fault-keyed
    :class:`ArrayIRModel` per instance, each re-solving its own
    profile grid and WL calibration on the ``reference`` backend —
    timed on ``MC_REFERENCE_INSTANCES`` instances and extrapolated.
    """
    from repro.faults import FaultModel
    from repro.mc import run_ensemble

    config = default_config(size=MC_ARRAY_SIZE)
    master = FaultModel.at_rate(MC_RATE, seed=MC_SEED)

    _reset_shared_state()
    start = time.perf_counter()
    for instance in range(MC_REFERENCE_INSTANCES):
        model = ArrayIRModel(
            config,
            faults=master.for_instance(instance),
            solver="reference",
        )
        model.latency_map()
    reference_wall = time.perf_counter() - start
    reference_rate = MC_REFERENCE_INSTANCES / reference_wall

    _reset_shared_state()
    context = RunContext(model_cache=ModelCache(), config=config, solver="batched")
    start = time.perf_counter()
    result = run_ensemble(context, samples=MC_SAMPLES, faults=master)
    ensemble_wall = time.perf_counter() - start
    ensemble_rate = MC_SAMPLES / ensemble_wall

    amortization = round(ensemble_rate / reference_rate, 3)
    print(
        f"mc: K={MC_SAMPLES} ensemble {ensemble_wall:7.3f}s "
        f"({ensemble_rate:8.1f} samples/s, {result.quanta_solved} quanta), "
        f"reference {reference_rate:8.1f} samples/s "
        f"({MC_REFERENCE_INSTANCES} timed) -> {amortization:.2f}x",
        flush=True,
    )
    return {
        "workload": (
            f"K={MC_SAMPLES} Monte Carlo variability ensemble on a "
            f"{MC_ARRAY_SIZE}x{MC_ARRAY_SIZE} array (composite faults at "
            f"{MC_RATE:g}) through solve_ensemble on the batched backend "
            "vs per-instance reference solves"
        ),
        "array_size": MC_ARRAY_SIZE,
        "samples": MC_SAMPLES,
        "fault_rate": MC_RATE,
        "solver": "batched",
        "ensemble": {
            "wall_s": round(ensemble_wall, 6),
            "samples_per_s": round(ensemble_rate, 3),
            "quanta_solved": result.quanta_solved,
        },
        "reference": {
            "instances_timed": MC_REFERENCE_INSTANCES,
            "wall_s": round(reference_wall, 6),
            "samples_per_s": round(reference_rate, 3),
        },
        "amortization_vs_reference": amortization,
    }


def run_shared_matrix() -> dict:
    """Shared-memory data plane throughput vs the ship-back process plane.

    Both legs drive the identical duplicate-heavy mix — bursts of
    concurrent duplicate requests, one fault identity per burst —
    through the process compute plane.  The baseline leg disables the
    shared segment *and* group dispatch (``shared_plane=False,
    group_dispatch=False``): every duplicate in a burst lands on its own
    worker, re-solves the identical profile grid in lockstep with its
    siblings, and ships the profiles back through the result pipe,
    exactly the pre-shared-plane backend.  The shared leg stacks each
    burst onto one worker, where the head job solves and publishes the
    grids once (process-local registry + lock-striped segment) and
    every duplicate collapses to registry hits.
    """
    import asyncio

    from repro.engine.service import EngineService, ServeOptions
    from repro.engine.warm import clear_warm_contexts

    name = SHARED_EXPERIMENT
    # One burst per identity, every duplicate in a burst issued
    # concurrently: 0,0,0,0 then 1,1,1,1 then 2,2,2,2.
    waves = [
        [seed] * SHARED_DUPLICATES for seed in range(SHARED_IDENTITIES)
    ]
    seeds = [seed for wave in waves for seed in wave]

    def drive(options: "ServeOptions") -> tuple[list[float], float, dict]:
        _reset_shared_state()
        clear_warm_contexts()

        async def go() -> tuple[list[float], float, dict]:
            service = EngineService(options)
            try:
                latencies = [0.0] * len(seeds)

                async def one(index: int, seed: int) -> None:
                    start = time.perf_counter()
                    doc = await service.submit(
                        {
                            "op": "run",
                            "experiment": name,
                            "seed": seed,
                            "fault_rate": SHARED_FAULT_RATE,
                        }
                    )
                    if not doc.get("ok"):
                        raise RuntimeError(f"service request failed: {doc}")
                    latencies[index] = time.perf_counter() - start

                # Untimed warm-up, one request per worker on *distinct*
                # fault identities (seeds far from the timed ones): pays
                # worker spawn and first-solve process costs without
                # pre-publishing any timed identity's profiles.  Both
                # legs get the identical warm-up, so the timed round
                # compares solve traffic, not pool boot.
                warmups = await asyncio.gather(
                    *(
                        service.submit(
                            {
                                "op": "run",
                                "experiment": name,
                                "seed": 1000 + i,
                                "fault_rate": SHARED_FAULT_RATE,
                            }
                        )
                        for i in range(SERVICE_WORKERS)
                    )
                )
                for warm in warmups:
                    if not warm.get("ok"):
                        raise RuntimeError(f"warm-up request failed: {warm}")
                before = service.stats().get("counters", {})

                start = time.perf_counter()
                index = 0
                for wave in waves:
                    # Barrier between bursts: the next identity's burst
                    # starts only when the last one drained, so every
                    # burst meets an idle pool and dispatch is
                    # deterministic in both legs.
                    await asyncio.gather(
                        *(
                            one(index + offset, seed)
                            for offset, seed in enumerate(wave)
                        )
                    )
                    index += len(wave)
                wall = time.perf_counter() - start
                stats = service.stats()
                # Counters are service-lifetime totals; report the timed
                # round alone so warm-up solves don't dilute the ratios.
                counters = stats.get("counters", {})
                stats["counters"] = {
                    key: value - before.get(key, 0)
                    for key, value in counters.items()
                }
            finally:
                await service.close(drain=True)
            return latencies, wall, stats

        return asyncio.run(go())

    baseline_options = ServeOptions(
        cache_dir=None,
        compute_plane="process",
        compute_workers=SERVICE_WORKERS,
        solver=DEFAULT_MATRIX_SOLVER,
        shared_plane=False,
        group_dispatch=False,
    )
    latencies, wall, _ = drive(baseline_options)
    baseline = _latency_stats(latencies, wall)

    shared_options = ServeOptions(
        cache_dir=None,
        compute_plane="process",
        compute_workers=SERVICE_WORKERS,
        solver=DEFAULT_MATRIX_SOLVER,
    )
    latencies, wall, stats = drive(shared_options)
    shared = _latency_stats(latencies, wall)
    counters = stats.get("counters", {})
    gauges = stats.get("gauges", {})

    speedup = (
        round(baseline["wall_s"] / shared["wall_s"], 3)
        if shared["wall_s"]
        else 0.0
    )
    duplicate_solves = counters.get("profile_cache.duplicate_solves", 0)
    # Jobs per merged solve stream: a group dispatch stacks duplicate
    # jobs onto one worker where the head job's solves serve the whole
    # stack, so the average stack depth is how many jobs each solve
    # stream was coalesced across (1.0 = nothing ever grouped).
    grouped = counters.get("compute.grouped_jobs", 0)
    dispatches = counters.get("compute.group_dispatches", 0)
    coalesce_ratio = round(grouped / dispatches, 4) if dispatches else 1.0
    print(
        f"shared:    {len(seeds)} x {name} "
        f"({SHARED_IDENTITIES} bursts x {SHARED_DUPLICATES} duplicates) "
        f"ship-back {baseline['wall_s']:7.3f}s -> shared plane "
        f"{shared['wall_s']:7.3f}s ({speedup:.2f}x, coalesce ratio "
        f"{coalesce_ratio:.2f}, {duplicate_solves} duplicate solves)",
        flush=True,
    )
    return {
        "workload": (
            f"{len(seeds)} '{name}' requests ({SHARED_IDENTITIES} "
            f"back-to-back bursts of {SHARED_DUPLICATES} concurrent "
            "duplicates, one fault identity per burst) on the process "
            "plane: shared-memory profile plane + group dispatch vs "
            "the ship-back baseline with both disabled"
        ),
        "experiment": name,
        "requests": len(seeds),
        "identities": SHARED_IDENTITIES,
        "duplicates": SHARED_DUPLICATES,
        "fault_rate": SHARED_FAULT_RATE,
        "compute_workers": SERVICE_WORKERS,
        "solver": DEFAULT_MATRIX_SOLVER,
        "baseline": baseline,
        "shared": shared,
        "speedup_vs_baseline": speedup,
        "coalesce_ratio": coalesce_ratio,
        "duplicate_solves": duplicate_solves,
        "counters": {
            "shared_stores": counters.get("profile_cache.shared_stores", 0),
            "shared_hits": counters.get("profile_cache.shared_hit", 0),
            "group_dispatches": counters.get("compute.group_dispatches", 0),
            "grouped_jobs": counters.get("compute.grouped_jobs", 0),
            "shm_fallbacks": counters.get("profile_cache.shm_fallbacks", 0),
        },
        "segment": {
            "bytes_used": int(gauges.get("shm.bytes_used", 0)),
            "bytes_capacity": int(gauges.get("shm.bytes_capacity", 0)),
        },
    }


def build_document(
    entries: list[dict],
    solver_entries: list[dict],
    service_matrix: dict,
    recovery_matrix: dict,
    sweep_matrix: dict,
    mc_matrix: dict,
    shared_matrix: dict,
    quick: bool,
) -> dict:
    return {
        "schema": SCHEMA,
        "date": datetime.date.today().isoformat(),
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "version": __version__,
        "quick": quick,
        "entries": entries,
        "solver_matrix": {
            "workload": (
                "512x512 RESET-latency sweep: latency_map over "
                f"{len(SOLVER_SWEEP_VOLTAGES)} drive levels"
            ),
            "entries": solver_entries,
        },
        "service_matrix": service_matrix,
        "recovery_matrix": recovery_matrix,
        "sweep_matrix": sweep_matrix,
        "mc_matrix": mc_matrix,
        "shared_matrix": shared_matrix,
        "totals": {
            "experiments": len(entries),
            "wall_s": round(sum(e["wall_s"] for e in entries), 6),
            "peak_rss_bytes": _peak_rss_bytes(),
        },
    }


def validate(document: dict) -> None:
    """Raise ``ValueError`` if ``document`` violates the bench schema."""

    def check(condition: bool, message: str) -> None:
        if not condition:
            raise ValueError(f"bench document invalid: {message}")

    check(isinstance(document, dict), "top level must be an object")
    expected = {
        "schema", "date", "host", "version", "quick", "entries",
        "solver_matrix", "service_matrix", "recovery_matrix",
        "sweep_matrix", "mc_matrix", "shared_matrix", "totals",
    }
    check(set(document) == expected, f"top-level keys must be {sorted(expected)}")
    check(document["schema"] == SCHEMA, f"schema must be {SCHEMA}")
    datetime.date.fromisoformat(document["date"])  # raises on malformed dates
    check(isinstance(document["quick"], bool), "quick must be a boolean")
    entries = document["entries"]
    check(
        isinstance(entries, list) and entries, "entries must be a non-empty list"
    )
    entry_keys = {
        "experiment", "solver", "wall_s", "peak_rss_bytes", "counters", "spans",
    }
    for entry in entries:
        check(
            isinstance(entry, dict) and set(entry) == entry_keys,
            f"entry keys must be {sorted(entry_keys)}",
        )
        check(
            entry["solver"] in available_solvers(),
            f"entry solver {entry.get('solver')!r} is not a registered backend",
        )
        check(
            isinstance(entry["wall_s"], (int, float)) and entry["wall_s"] >= 0,
            "wall_s must be a non-negative number",
        )
        check(
            isinstance(entry["peak_rss_bytes"], int)
            and entry["peak_rss_bytes"] > 0,
            "peak_rss_bytes must be a positive integer",
        )
        check(
            isinstance(entry["counters"], dict)
            and all(
                isinstance(k, str) and isinstance(v, int)
                for k, v in entry["counters"].items()
            ),
            "counters must map names to integers",
        )
        check(
            isinstance(entry["spans"], dict)
            and all(
                isinstance(stat, dict) and stat.get("count", 0) >= 1
                for stat in entry["spans"].values()
            ),
            "spans must map paths to stat records",
        )
        check(
            bool(entry["counters"]) or bool(entry["spans"]),
            "a profiled entry must record at least one observation",
        )
    solver_matrix = document["solver_matrix"]
    check(
        isinstance(solver_matrix, dict)
        and set(solver_matrix) == {"workload", "entries"},
        "solver_matrix keys must be [entries, workload]",
    )
    solver_entries = solver_matrix["entries"]
    check(
        isinstance(solver_entries, list) and solver_entries,
        "solver_matrix.entries must be a non-empty list",
    )
    solver_entry_keys = {"solver", "wall_s", "counters", "speedup_vs_reference"}
    seen_solvers = set()
    for entry in solver_entries:
        check(
            isinstance(entry, dict) and set(entry) == solver_entry_keys,
            f"solver entry keys must be {sorted(solver_entry_keys)}",
        )
        check(
            isinstance(entry["wall_s"], (int, float)) and entry["wall_s"] > 0,
            "solver wall_s must be a positive number",
        )
        check(
            isinstance(entry["speedup_vs_reference"], (int, float))
            and entry["speedup_vs_reference"] > 0,
            "speedup_vs_reference must be a positive number",
        )
        seen_solvers.add(entry["solver"])
    check(
        seen_solvers == set(available_solvers()),
        "solver_matrix must cover every registered backend",
    )
    reference = next(
        e for e in solver_entries if e["solver"] == "reference"
    )
    check(
        abs(reference["speedup_vs_reference"] - 1.0) < 0.01,
        "the reference backend's speedup must be ~1.0",
    )
    service_matrix = document["service_matrix"]
    service_keys = {
        "workload", "experiment", "requests", "compute_workers", "solver",
        "serialized", "service", "speedup_vs_serialized",
    }
    check(
        isinstance(service_matrix, dict) and set(service_matrix) == service_keys,
        f"service_matrix keys must be {sorted(service_keys)}",
    )
    check(
        isinstance(service_matrix["requests"], int)
        and service_matrix["requests"] > 0,
        "service_matrix.requests must be a positive integer",
    )
    check(
        service_matrix["solver"] in available_solvers(),
        "service_matrix.solver must be a registered backend",
    )
    for mode in ("serialized", "service"):
        mode_stats = service_matrix[mode]
        mode_keys = {"wall_s", "requests_per_s", "p50_s", "p99_s"}
        check(
            isinstance(mode_stats, dict) and set(mode_stats) == mode_keys,
            f"service_matrix.{mode} keys must be {sorted(mode_keys)}",
        )
        for field in mode_keys:
            check(
                isinstance(mode_stats[field], (int, float))
                and mode_stats[field] >= 0,
                f"service_matrix.{mode}.{field} must be a non-negative number",
            )
        check(
            mode_stats["p50_s"] <= mode_stats["p99_s"],
            f"service_matrix.{mode}: p50 must not exceed p99",
        )
    check(
        isinstance(service_matrix["speedup_vs_serialized"], (int, float))
        and service_matrix["speedup_vs_serialized"] > 0,
        "speedup_vs_serialized must be a positive number",
    )
    recovery = document["recovery_matrix"]
    recovery_keys = {
        "workload", "experiment", "requests", "compute_workers", "solver",
        "chaos_spec", "steady", "during_kill", "throughput_ratio",
        "breaker_trip",
    }
    check(
        isinstance(recovery, dict) and set(recovery) == recovery_keys,
        f"recovery_matrix keys must be {sorted(recovery_keys)}",
    )
    check(
        isinstance(recovery["requests"], int) and recovery["requests"] > 0,
        "recovery_matrix.requests must be a positive integer",
    )
    check(
        recovery["solver"] in available_solvers(),
        "recovery_matrix.solver must be a registered backend",
    )
    check(
        isinstance(recovery["chaos_spec"], str) and recovery["chaos_spec"],
        "recovery_matrix.chaos_spec must be a non-empty spec string",
    )
    for mode in ("steady", "during_kill"):
        mode_stats = recovery[mode]
        mode_keys = {"wall_s", "requests_per_s", "p50_s", "p99_s"}
        if mode == "during_kill":
            mode_keys |= {"worker_deaths", "requeues"}
        check(
            isinstance(mode_stats, dict) and set(mode_stats) == mode_keys,
            f"recovery_matrix.{mode} keys must be {sorted(mode_keys)}",
        )
        for field in mode_keys:
            check(
                isinstance(mode_stats[field], (int, float))
                and mode_stats[field] >= 0,
                f"recovery_matrix.{mode}.{field} must be a non-negative "
                "number",
            )
        check(
            mode_stats["p50_s"] <= mode_stats["p99_s"],
            f"recovery_matrix.{mode}: p50 must not exceed p99",
        )
    check(
        recovery["during_kill"]["worker_deaths"] >= 1,
        "the during-kill phase must record at least one worker death "
        "(otherwise the chaos policy never fired and the phase measured "
        "nothing)",
    )
    check(
        isinstance(recovery["throughput_ratio"], (int, float))
        and recovery["throughput_ratio"] > 0,
        "recovery_matrix.throughput_ratio must be a positive number",
    )
    breaker_trip = recovery["breaker_trip"]
    check(
        isinstance(breaker_trip, dict)
        and set(breaker_trip) == {"time_to_recover_s", "trips", "rung_after"},
        "breaker_trip keys must be [rung_after, time_to_recover_s, trips]",
    )
    check(
        isinstance(breaker_trip["time_to_recover_s"], (int, float))
        and breaker_trip["time_to_recover_s"] > 0,
        "breaker_trip.time_to_recover_s must be a positive number",
    )
    check(
        isinstance(breaker_trip["trips"], int) and breaker_trip["trips"] >= 1,
        "breaker_trip.trips must record at least one breaker trip",
    )
    check(
        breaker_trip["rung_after"] in ("thread", "inline"),
        "after a trip from the process rung the service must sit on a "
        "lower rung",
    )
    sweep = document["sweep_matrix"]
    sweep_keys = {"workload", "rows", "backends", "parity"}
    check(
        isinstance(sweep, dict) and set(sweep) == sweep_keys,
        f"sweep_matrix keys must be {sorted(sweep_keys)}",
    )
    check(
        isinstance(sweep["rows"], int) and sweep["rows"] >= 100_000,
        "sweep_matrix.rows must cover at least 1e5 ingested rows",
    )
    check(
        isinstance(sweep["backends"], list) and sweep["backends"],
        "sweep_matrix.backends must be a non-empty list",
    )
    sweep_entry_keys = {
        "backend", "rows", "ingest_s", "ingest_rows_per_s", "combine_s",
        "query_s", "query_rows", "join_s", "join_rows", "fingerprint",
    }
    sweep_fingerprints = set()
    for entry in sweep["backends"]:
        check(
            isinstance(entry, dict) and set(entry) == sweep_entry_keys,
            f"sweep backend entry keys must be {sorted(sweep_entry_keys)}",
        )
        check(
            entry["rows"] == sweep["rows"],
            "every backend must ingest the identical row grid",
        )
        for field in ("ingest_s", "ingest_rows_per_s", "combine_s",
                      "query_s", "join_s"):
            check(
                isinstance(entry[field], (int, float)) and entry[field] > 0,
                f"sweep_matrix {field} must be a positive number",
            )
        check(
            isinstance(entry["join_rows"], int) and entry["join_rows"] > 0,
            "the cross-run join must match at least one design point",
        )
        check(
            isinstance(entry["fingerprint"], str)
            and len(entry["fingerprint"]) == 64,
            "fingerprint must be a sha256 hex digest",
        )
        sweep_fingerprints.add(entry["fingerprint"])
    check(
        isinstance(sweep["parity"], bool)
        and sweep["parity"] == (len(sweep_fingerprints) == 1),
        "sweep_matrix.parity must match the recorded fingerprints",
    )
    check(
        sweep["parity"],
        "canonical tables must be byte-identical across storage backends",
    )
    mc = document["mc_matrix"]
    mc_keys = {
        "workload", "array_size", "samples", "fault_rate", "solver",
        "ensemble", "reference", "amortization_vs_reference",
    }
    check(
        isinstance(mc, dict) and set(mc) == mc_keys,
        f"mc_matrix keys must be {sorted(mc_keys)}",
    )
    check(
        isinstance(mc["samples"], int) and mc["samples"] >= 64,
        "mc_matrix.samples must cover a K>=64 ensemble",
    )
    check(
        mc["solver"] in available_solvers(),
        "mc_matrix.solver must be a registered backend",
    )
    check(
        isinstance(mc["fault_rate"], (int, float)) and mc["fault_rate"] > 0,
        "mc_matrix.fault_rate must be positive (variability needs spread)",
    )
    ensemble = mc["ensemble"]
    check(
        isinstance(ensemble, dict)
        and set(ensemble) == {"wall_s", "samples_per_s", "quanta_solved"},
        "mc_matrix.ensemble keys must be "
        "[quanta_solved, samples_per_s, wall_s]",
    )
    check(
        isinstance(ensemble["wall_s"], (int, float)) and ensemble["wall_s"] > 0,
        "mc_matrix.ensemble.wall_s must be a positive number",
    )
    check(
        isinstance(ensemble["samples_per_s"], (int, float))
        and ensemble["samples_per_s"] > 0,
        "mc_matrix.ensemble.samples_per_s must be a positive number",
    )
    check(
        isinstance(ensemble["quanta_solved"], int)
        and ensemble["quanta_solved"] >= 1,
        "the ensemble must have solved at least one profile quantum",
    )
    mc_reference = mc["reference"]
    check(
        isinstance(mc_reference, dict)
        and set(mc_reference) == {"instances_timed", "wall_s", "samples_per_s"},
        "mc_matrix.reference keys must be "
        "[instances_timed, samples_per_s, wall_s]",
    )
    check(
        isinstance(mc_reference["instances_timed"], int)
        and mc_reference["instances_timed"] >= 1,
        "mc_matrix.reference must time at least one instance",
    )
    check(
        isinstance(mc_reference["wall_s"], (int, float))
        and mc_reference["wall_s"] > 0,
        "mc_matrix.reference.wall_s must be a positive number",
    )
    check(
        isinstance(mc["amortization_vs_reference"], (int, float))
        and mc["amortization_vs_reference"] >= MC_MIN_AMORTIZATION,
        "mc_matrix.amortization_vs_reference must reach "
        f">= {MC_MIN_AMORTIZATION}x (ensemble batching must amortize "
        "factorisation work across instances)",
    )
    shared = document["shared_matrix"]
    shared_keys = {
        "workload", "experiment", "requests", "identities", "duplicates",
        "fault_rate", "compute_workers", "solver", "baseline", "shared",
        "speedup_vs_baseline", "coalesce_ratio", "duplicate_solves",
        "counters", "segment",
    }
    check(
        isinstance(shared, dict) and set(shared) == shared_keys,
        f"shared_matrix keys must be {sorted(shared_keys)}",
    )
    check(
        isinstance(shared["requests"], int)
        and shared["requests"]
        == shared["identities"] * shared["duplicates"],
        "shared_matrix.requests must be identities x duplicates",
    )
    check(
        isinstance(shared["duplicates"], int) and shared["duplicates"] >= 2,
        "shared_matrix needs duplicate requests (that is the workload "
        "the shared plane deduplicates)",
    )
    check(
        shared["solver"] in available_solvers(),
        "shared_matrix.solver must be a registered backend",
    )
    for mode in ("baseline", "shared"):
        mode_stats = shared[mode]
        mode_keys = {"wall_s", "requests_per_s", "p50_s", "p99_s"}
        check(
            isinstance(mode_stats, dict) and set(mode_stats) == mode_keys,
            f"shared_matrix.{mode} keys must be {sorted(mode_keys)}",
        )
        for field in mode_keys:
            check(
                isinstance(mode_stats[field], (int, float))
                and mode_stats[field] >= 0,
                f"shared_matrix.{mode}.{field} must be a non-negative number",
            )
        check(
            mode_stats["p50_s"] <= mode_stats["p99_s"],
            f"shared_matrix.{mode}: p50 must not exceed p99",
        )
    check(
        isinstance(shared["speedup_vs_baseline"], (int, float))
        and shared["speedup_vs_baseline"] >= SHARED_MIN_SPEEDUP,
        "shared_matrix.speedup_vs_baseline must reach "
        f">= {SHARED_MIN_SPEEDUP}x (the shared plane must amortize "
        "duplicate solves across the worker fleet)",
    )
    check(
        isinstance(shared["coalesce_ratio"], (int, float))
        and shared["coalesce_ratio"] >= SHARED_MIN_COALESCE,
        f"shared_matrix.coalesce_ratio must reach >= {SHARED_MIN_COALESCE} "
        "(grouped duplicates must merge their solves)",
    )
    check(
        isinstance(shared["duplicate_solves"], int)
        and shared["duplicate_solves"] <= SHARED_MAX_DUPLICATE_SOLVES,
        "shared_matrix.duplicate_solves must stay ~0 "
        f"(<= {SHARED_MAX_DUPLICATE_SOLVES}); workers are re-solving "
        "profiles the segment already holds",
    )
    shared_counters = shared["counters"]
    check(
        isinstance(shared_counters, dict)
        and set(shared_counters)
        == {"shared_stores", "shared_hits", "group_dispatches",
            "grouped_jobs", "shm_fallbacks"},
        "shared_matrix.counters must record the data-plane counter set",
    )
    check(
        shared_counters["shared_stores"] >= 1,
        "the shared leg must publish at least one profile to the segment",
    )
    check(
        shared_counters["group_dispatches"] >= 1,
        "the shared leg must stack at least one duplicate group",
    )
    segment = shared["segment"]
    check(
        isinstance(segment, dict)
        and set(segment) == {"bytes_used", "bytes_capacity"},
        "shared_matrix.segment keys must be [bytes_capacity, bytes_used]",
    )
    check(
        isinstance(segment["bytes_used"], int) and segment["bytes_used"] > 0,
        "a non-empty segment must report bytes_used > 0",
    )
    check(
        isinstance(segment["bytes_capacity"], int)
        and segment["bytes_used"] <= segment["bytes_capacity"],
        "segment occupancy cannot exceed its capacity",
    )
    totals = document["totals"]
    check(
        isinstance(totals, dict)
        and set(totals) == {"experiments", "wall_s", "peak_rss_bytes"},
        "totals keys must be [experiments, peak_rss_bytes, wall_s]",
    )
    check(
        totals["experiments"] == len(entries),
        "totals.experiments must match len(entries)",
    )
    check(
        abs(totals["wall_s"] - sum(e["wall_s"] for e in entries)) < 1e-3,
        "totals.wall_s must be the sum of entry wall times",
    )


def _entry_factorisations(entry: dict) -> "int | None":
    return (entry.get("counters") or {}).get("solver.factorisations")


def compare(old: dict, new: dict, fail_over: float | None) -> int:
    """Print a speedup table of ``new`` against ``old``; gate regressions.

    Experiments are matched by name (solver/schema differences between
    the documents are reported, not fatal — an old schema-2 baseline
    measured the reference backend and remains a valid comparison
    point).  Returns 1 when ``fail_over`` is set and any shared
    experiment ran more than ``fail_over`` times slower than before.
    """
    old_entries = {e["experiment"]: e for e in old.get("entries", ())}
    header = (
        f"{'experiment':10s} {'old_s':>9s} {'new_s':>9s} {'speedup':>8s} "
        f"{'rss_MiB':>8s} {'factorisations':>20s}"
    )
    print(f"comparing against schema-{old.get('schema')} document "
          f"dated {old.get('date')}")
    print(header)
    print("-" * len(header))
    regressions = []
    for entry in new["entries"]:
        name = entry["experiment"]
        before = old_entries.get(name)
        rss = entry["peak_rss_bytes"] / 2**20
        if before is None:
            print(
                f"{name:10s} {'-':>9s} {entry['wall_s']:9.3f} {'-':>8s} "
                f"{rss:8.1f} {'-':>20s}"
            )
            continue
        speedup = (
            before["wall_s"] / entry["wall_s"]
            if entry["wall_s"] > 0
            else float("inf")
        )
        old_fact = _entry_factorisations(before)
        new_fact = _entry_factorisations(entry)
        fact = (
            f"{old_fact} -> {new_fact}"
            if old_fact is not None and new_fact is not None
            else "-"
        )
        tags = []
        if before.get("solver", "reference") != entry["solver"]:
            tags.append(
                f"[{before.get('solver', 'reference')} -> {entry['solver']}]"
            )
        if fail_over is not None and entry["wall_s"] > fail_over * before["wall_s"]:
            regressions.append((name, speedup))
            tags.append("REGRESSION")
        print(
            f"{name:10s} {before['wall_s']:9.3f} {entry['wall_s']:9.3f} "
            f"{speedup:7.2f}x {rss:8.1f} {fact:>20s} {' '.join(tags)}".rstrip()
        )
    old_shared = old.get("shared_matrix")
    new_shared = new.get("shared_matrix")
    if old_shared and new_shared:
        old_rps = old_shared["shared"]["requests_per_s"]
        new_rps = new_shared["shared"]["requests_per_s"]
        print(
            f"shared plane: {old_rps:.3f} -> {new_rps:.3f} requests/s "
            f"(speedup vs ship-back "
            f"{new_shared['speedup_vs_baseline']:.2f}x)"
        )
        if (
            fail_over is not None
            and new_rps > 0
            and old_rps > fail_over * new_rps
        ):
            regressions.append(
                ("shared_matrix", new_rps / old_rps if old_rps else 0.0)
            )
    if regressions:
        names = ", ".join(
            f"{name} ({speedup:.2f}x)" for name, speedup in regressions
        )
        print(
            f"FAIL: {len(regressions)} experiment(s) regressed beyond "
            f"{fail_over}x: {names}",
            file=sys.stderr,
        )
        return 1
    if fail_over is not None:
        print(f"OK: no experiment regressed beyond {fail_over}x")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="run the small CI smoke matrix instead of the full one",
    )
    parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="output path (default: BENCH_<date>.json at the repo root)",
    )
    parser.add_argument(
        "--validate", metavar="PATH", default=None,
        help="validate an existing bench document against the schema "
        "and exit (no experiments are run)",
    )
    parser.add_argument(
        "--matrix-solver", metavar="NAME", default=DEFAULT_MATRIX_SOLVER,
        choices=available_solvers(),
        help="solver backend for the experiment matrix "
        f"(default: {DEFAULT_MATRIX_SOLVER})",
    )
    parser.add_argument(
        "--compare", metavar="OLD_JSON", default=None,
        help="after the run, print a speedup table against a previous "
        "bench document (matched by experiment name)",
    )
    parser.add_argument(
        "--fail-over", metavar="RATIO", type=float, default=None,
        help="with --compare: exit non-zero if any shared experiment "
        "ran more than RATIO times slower than the old document",
    )
    args = parser.parse_args(argv)
    if args.fail_over is not None and args.compare is None:
        parser.error("--fail-over requires --compare")
    if args.fail_over is not None and args.fail_over <= 0:
        parser.error("--fail-over must be positive")

    if args.validate is not None:
        document = json.loads(pathlib.Path(args.validate).read_text())
        try:
            validate(document)
        except ValueError as error:
            print(error, file=sys.stderr)
            return 1
        print(f"{args.validate}: valid (schema {document['schema']})")
        return 0

    matrix = QUICK_MATRIX if args.quick else FULL_MATRIX
    _warm_process()
    entries = run_matrix(matrix, args.matrix_solver)
    solver_entries = run_solver_matrix()
    service_matrix = run_service_matrix()
    recovery_matrix = run_recovery_matrix()
    sweep_matrix = run_sweep_matrix()
    mc_matrix = run_mc_matrix()
    shared_matrix = run_shared_matrix()
    document = build_document(
        entries, solver_entries, service_matrix, recovery_matrix,
        sweep_matrix, mc_matrix, shared_matrix, quick=args.quick,
    )
    validate(document)  # never emit a document the validator rejects
    out = pathlib.Path(
        args.out
        if args.out is not None
        else _REPO_ROOT / f"BENCH_{document['date']}.json"
    )
    out.write_text(json.dumps(document, indent=2) + "\n")
    total = document["totals"]
    print(
        f"wrote {out} ({total['experiments']} experiments, "
        f"{total['wall_s']:.3f}s, "
        f"peak rss {total['peak_rss_bytes'] / 2**20:.1f} MiB)"
    )
    if args.compare is not None:
        old = json.loads(pathlib.Path(args.compare).read_text())
        return compare(old, document, args.fail_over)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
