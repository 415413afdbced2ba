"""Compute-plane backends: where experiment plans actually execute.

A :class:`ComputeBackend` accepts ``(plan, context)`` pairs and turns
them into :class:`~repro.engine.artifact.ExperimentResult` artifacts.
The request planes — the batch runner and the asyncio service — never
run drivers themselves; they build plans and submit them here, so the
execution semantics (caching, partial results, observability) are
identical whichever front door a request came through.

Three backends ship:

* :class:`InlineBackend` executes in the calling thread.  This is the
  batch CLI's path and keeps ``run_experiment`` synchronous and
  byte-identical to the historical runner.
* :class:`ThreadPoolBackend` executes plans on worker threads over
  *shared warm contexts*.  Concurrent requests share the process-wide
  solver backends, each of which serialises its own solves with one
  lock (see :class:`~repro.circuit.solvers.base.SolverBackend`).
  Within an experiment, cell-level fan-out still rides the context's
  executor — the existing process pool sits *underneath* this backend,
  it is not replaced by it.
* :class:`ProcessPoolBackend` executes whole plans in supervised worker
  *processes* over warm per-worker contexts, so CPU-bound request
  streams scale past one core and a crashed or wedged worker
  interpreter cannot take the service down.  A supervisor thread does
  heartbeat/health checks, detects worker deaths and solves wedged
  past their deadline, restarts workers under a bounded budget with
  jittered :class:`~repro.engine.executor.RetryPolicy` backoff, and
  requeues in-flight plans (plan execution is idempotent: pure inputs,
  cache-keyed outputs).  When the budget is exhausted the pool declares
  itself broken — every pending future fails with
  :class:`PoolBrokenError` and further submits refuse — which is the
  signal the service's degradation ladder trips on.

Worker threads each collect observability into a per-request
collector (activation is thread-local, see :mod:`repro.obs.collector`)
and merge the snapshot into the backend's aggregate under a lock, so
service-wide counters survive request interleaving.  Pool workers ship
a picklable snapshot back with each plan result, which the supervisor
merges when it resolves the plan's future.

The process pool's job wire is generic: a worker runs ``fn(*args)``
for each job it is handed.  :meth:`ProcessPoolBackend.submit` is one
use of it (a plan spec run by :func:`_execute_spec`);
:meth:`ProcessPoolBackend.call` is the other, and
:class:`~repro.engine.executor.ParallelExecutor` runs its ``--workers``
fan-out on it, one short-lived pool per ``map``.

The process pool additionally runs a **shared-memory solver data
plane** (:mod:`repro.engine.shm`): the supervisor creates one
lock-striped segment, hands every worker a reattachable handle at
spawn, and each worker wires the segment into its process-global
profile registry — so a BL profile or WL calibration solved by any
worker is zero-copy readable by all siblings instead of being
re-solved.  Whenever shared memory is unavailable or a stripe declines
a write, the profile stays with its worker and reaches siblings only
through the disk cache, when the job carries one.  On top of it, the
supervisor's dispatcher *groups* queued jobs with equal (config,
solver, fault-set) identity onto one worker, where the head job solves
the group's profile grids once and its group-mates collapse to
registry hits — one solve stream serving the whole stack.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import random
from multiprocessing import connection as mp_connection
from multiprocessing.reduction import ForkingPickler
import threading
import time
import traceback as traceback_module
from abc import ABC, abstractmethod
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from .. import chaos, obs
from .executor import RetryPolicy
from .plan import execute_plan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.experiments import PerfSettings
    from ..config import SystemConfig
    from ..faults.model import FaultModel
    from ..obs.collector import Snapshot
    from .artifact import ExperimentResult
    from .context import RunContext
    from .plan import ExperimentPlan

__all__ = [
    "ComputeBackend",
    "ComputeJobError",
    "InlineBackend",
    "JobDeadlineError",
    "PoolBrokenError",
    "ProcessPoolBackend",
    "ThreadPoolBackend",
    "inline_backend",
]


class PoolBrokenError(RuntimeError):
    """The process pool cannot execute this plan (infrastructure failure).

    Raised on submit once the pool's restart budget is exhausted, and
    delivered on futures whose plan was lost to worker deaths more
    times than the resubmission budget allows.  Plans failed this way
    were never *computed* wrong — resubmitting them elsewhere (the
    service's thread/inline fallback rungs) is always safe.
    """


class JobDeadlineError(PoolBrokenError):
    """A job was lost because its worker overran ``job_deadline_s``.

    Still a :class:`PoolBrokenError` (the worker was terminated), but a
    distinct type so callers can tell a timeout from a death.
    """


class ComputeJobError(RuntimeError):
    """A plan raised inside a pool worker (a real task failure).

    Carries the original exception type/message plus the worker-side
    traceback; unlike :class:`PoolBrokenError` this is *not* an
    infrastructure fault, so callers do not retry it on another rung.
    """

    def __init__(self, error_type: str, message: str, tb: str = "") -> None:
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type
        self.tb = tb


class ComputeBackend(ABC):
    """One strategy for executing experiment plans."""

    @abstractmethod
    def submit(
        self, plan: "ExperimentPlan", context: "RunContext"
    ) -> "Future[ExperimentResult]":
        """Schedule ``plan`` and return a future for its artifact."""

    def run(
        self, plan: "ExperimentPlan", context: "RunContext"
    ) -> "ExperimentResult":
        """Execute ``plan`` and block for the artifact."""
        return self.submit(plan, context).result()

    def close(self) -> None:
        """Release backend resources (idempotent)."""


class InlineBackend(ComputeBackend):
    """Execute plans synchronously in the calling thread."""

    def submit(
        self, plan: "ExperimentPlan", context: "RunContext"
    ) -> "Future[ExperimentResult]":
        future: Future = Future()
        try:
            future.set_result(execute_plan(plan, context))
        except BaseException as exc:  # noqa: BLE001 - future carries it
            future.set_exception(exc)
        return future

    def run(
        self, plan: "ExperimentPlan", context: "RunContext"
    ) -> "ExperimentResult":
        return execute_plan(plan, context)


_INLINE = InlineBackend()


def inline_backend() -> InlineBackend:
    """The shared (stateless) inline backend."""
    return _INLINE


class ThreadPoolBackend(ComputeBackend):
    """Execute plans on worker threads over shared warm contexts.

    ``workers`` bounds concurrent plan execution.  Solves from
    concurrent requests meet at the process-wide solver backends, whose
    per-instance lock serialises them; every solve runs in its
    request's own observability scope.
    """

    def __init__(self, workers: int = 2) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-compute"
        )
        self._collector = obs.Collector()
        self._collector_lock = threading.Lock()
        self._closed = False

    @property
    def label(self) -> str:
        return f"threads[{self.workers}]"

    def _execute(
        self, plan: "ExperimentPlan", context: "RunContext"
    ) -> "ExperimentResult":
        local = obs.Collector()
        with obs.collecting(local):
            with obs.span("compute.plan", name=plan.name):
                result = execute_plan(plan, context)
        self.merge_observations(local.snapshot())
        return result

    def submit(
        self, plan: "ExperimentPlan", context: "RunContext"
    ) -> "Future[ExperimentResult]":
        if self._closed:
            raise RuntimeError("compute backend is closed")
        return self._pool.submit(self._execute, plan, context)

    def merge_observations(self, snapshot: "Snapshot") -> None:
        with self._collector_lock:
            self._collector.merge(snapshot)

    def stats(self) -> "Snapshot":
        """Aggregate observability of every executed plan."""
        with self._collector_lock:
            return self._collector.snapshot()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=True)


# -- supervised process pool ---------------------------------------------------


@dataclass(frozen=True)
class _JobSpec:
    """Everything a worker process needs to rebuild and run one plan.

    Plans themselves carry a live registry record (an unpicklable-ish
    closure under ``spawn``), so the wire format is the *request*: the
    worker resolves it against its own registry and warm-context table,
    which is exactly what makes resubmission idempotent — the same spec
    always keys the same context, the same cache entry, and the same
    deterministic drivers.
    """

    name: str
    config: "SystemConfig | None"
    seed: int
    solver: "str | None"
    faults: "FaultModel | None"
    cache_dir: "str | None"
    settings: "PerfSettings | None"
    strict: bool


def _spec_for(plan: "ExperimentPlan", context: "RunContext") -> _JobSpec:
    cache = context.cache
    cache_dir = str(cache.root) if getattr(cache, "enabled", False) else None
    return _JobSpec(
        name=plan.name,
        config=context.config,
        seed=context.seed,
        solver=context.solver,
        faults=context.faults,
        cache_dir=cache_dir,
        settings=plan.settings,
        strict=context.strict,
    )


def _execute_spec(spec: _JobSpec) -> tuple:
    """Run one job spec in this (worker) process; returns
    ``(result, obs_snapshot)``."""
    from .plan import build_plan
    from .registry import ensure_loaded
    from .warm import warm_context

    ensure_loaded()
    context = warm_context(
        config=spec.config,
        seed=spec.seed,
        solver=spec.solver,
        faults=spec.faults,
        cache_dir=spec.cache_dir,
        strict=spec.strict,
    )
    plan = build_plan(spec.name, context, spec.settings)
    local = obs.Collector()
    with obs.collecting(local):
        with obs.span("compute.plan", name=plan.name):
            result = execute_plan(plan, context)
    return result, local.snapshot()


def _pool_worker_main(
    worker_id: int,
    task_queue,
    result_conn,
    heartbeat_s: float,
    chaos_policy,
    shm_handle=None,
) -> None:
    """Worker process loop: run jobs until the ``None`` sentinel.

    A daemon heartbeat thread proves the interpreter is still
    scheduling threads — a worker wedged in a C loop (or paused by the
    chaos harness) stops beating, and the supervisor recycles it.

    Results and heartbeats ride this worker's *private* pipe, not a
    queue shared with its siblings.  A shared ``mp.Queue`` write lock
    is a pool-wide hazard: a worker that dies abruptly (chaos
    ``os._exit``, OOM kill) while its queue feeder thread holds the
    cross-process semaphore wedges every other worker's puts forever —
    their heartbeats stop, the supervisor declares them silent, and one
    injected kill cascades into a full pool loss.  With one pipe per
    worker, dying mid-write can only corrupt that worker's own channel,
    which the supervisor reads as EOF: exactly a worker death, fully
    contained.  ``send_lock`` is a plain in-process lock (main thread
    vs heartbeat thread) and dies with the process, harming nobody.

    ``shm_handle``, when given, is the shared profile plane's spawn
    handshake: the worker attaches (or, after a restart, *re*attaches —
    the handle is the same) and wires the segment into its profile
    registry, so artefacts flow to siblings zero-copy.  Attach failure
    degrades silently to a worker-local registry (plus the disk cache).

    Task messages are lists of pickled ``(job_id, fn, args,
    chaos_token)`` jobs; the worker runs ``fn(*args)`` for each and
    posts the return value (or the exception's type, message and
    traceback).  Plan jobs stacked by group identity run
    *sequentially*, in dispatch order: the head job solves the group's
    profile grids once and publishes them (process-local registry +
    shared plane), and every group-mate's solves collapse to registry
    hits.  Running group-mates concurrently instead would be strictly
    worse: duplicate streams re-solve every quantum N times.  Solves run on the job's own
    thread, inside its ``obs.collecting`` scope, so their counters land
    in the job's snapshot.
    """
    if chaos_policy is not None:
        chaos.install(chaos_policy)
    send_lock = threading.Lock()

    def post(message: tuple) -> None:
        try:
            with send_lock:
                result_conn.send(message)
        except (BrokenPipeError, OSError):  # supervisor is gone
            os._exit(0)

    def beat() -> None:
        while True:
            time.sleep(heartbeat_s)
            try:
                with send_lock:
                    result_conn.send(("beat", worker_id, None))
            except Exception:  # noqa: BLE001 - pipe torn down at shutdown
                return

    threading.Thread(
        target=beat, daemon=True, name=f"repro-pool-beat-{worker_id}"
    ).start()

    from ..xpoint.vmap import profile_registry

    if shm_handle is not None:
        from .shm import SharedProfilePlane

        try:
            plane = SharedProfilePlane.attach(shm_handle)
        except Exception:  # noqa: BLE001 - plane optional by contract
            plane = None
        if plane is not None:
            profile_registry.attach_shared(plane)

    def failure(job_id: int, exc: BaseException) -> tuple:
        tb = "".join(
            traceback_module.format_exception(
                type(exc), exc, exc.__traceback__, limit=8
            )
        )
        return ("error", worker_id, (job_id, type(exc).__name__, str(exc), tb))

    def run_one(job_id: int, fn, args: tuple, chaos_token) -> None:
        kill_timer = chaos.kill_point(chaos_token)
        try:
            message = ("done", worker_id, (job_id, fn(*args)))
        except BaseException as exc:  # noqa: BLE001 - shipped to supervisor
            message = failure(job_id, exc)
        finally:
            # Disarm a kill aimed at this job once it is over: a stale
            # timer firing during the *next* job would charge an
            # innocent job's resubmission budget.
            if kill_timer is not None:
                kill_timer.cancel()
        try:
            post(message)
        except Exception as exc:  # noqa: BLE001 - an unpicklable return value
            post(failure(job_id, exc))

    post(("ready", worker_id, None))
    while True:
        message = task_queue.get()
        if message is None:
            break
        for wire in message:
            run_one(*ForkingPickler.loads(wire))
    post(("bye", worker_id, None))


class _Job:
    __slots__ = ("id", "fn", "args", "name", "chaos_token", "finish",
                 "future", "attempts", "dispatched", "group", "wid")

    def __init__(
        self,
        job_id: int,
        fn: "Callable",
        args: tuple,
        name: str,
        chaos_token: "tuple | None" = None,
        finish: "Callable | None" = None,
    ) -> None:
        self.id = job_id
        self.fn = fn
        self.args = args
        self.name = name  # for error messages: "plan 'fig15'", "call f"
        #: Chaos identity of this execution: (plan name, seed, attempt).
        #: The attempt is part of the token so a resubmitted plan draws
        #: a *fresh* kill decision — deterministic, but convergent.
        self.chaos_token = chaos_token
        #: Supervisor-side step turning the worker's return value into
        #: the future's result (a plan job merges its obs snapshot).
        self.finish = finish
        self.future: Future = Future()
        self.attempts = 0  # resubmissions consumed by worker deaths
        self.dispatched = False
        #: Group-dispatch identity (config/solver/fault-set); jobs with
        #: equal groups may be stacked onto one worker.
        self.group: "tuple | None" = None
        #: Worker epoch this job is currently dispatched to, or None
        #: while queued.  Results are only merged when the reporting
        #: worker matches — a requeued job's late duplicate from a
        #: half-dead worker must not double-count observations.
        self.wid: "int | None" = None


class _PoolWorker:
    __slots__ = ("wid", "process", "task_queue", "conn", "job_ids",
                 "started_at", "last_beat", "group", "grouped")

    def __init__(self, wid: int, process, task_queue, conn) -> None:
        self.wid = wid
        self.process = process
        self.task_queue = task_queue
        self.conn = conn  # supervisor's end of the worker's result pipe
        #: In-flight jobs in dispatch order (a dict as an ordered set):
        #: the worker runs them in this order, so the first is running.
        self.job_ids: dict[int, None] = {}
        self.started_at = 0.0
        self.last_beat = time.monotonic()
        #: Group identity of the last batch dispatched here.  While jobs
        #: are in flight it routes affinity appends; once idle it marks
        #: which identity's profiles sit warm in this worker's registry.
        self.group: "tuple | None" = None
        #: Whether the current solve stream was already counted as a
        #: group dispatch (keeps the stack-depth counters exact when
        #: affinity appends trickle in one job at a time).
        self.grouped = False


class ProcessPoolBackend(ComputeBackend):
    """Execute plans in supervised worker processes over warm contexts.

    ``workers`` is the pool size the supervisor maintains.  Each worker
    keeps its own warm-context table, so repeated requests with equal
    parameters reuse one model cache *per worker*; profiles cross
    workers through the shared plane (below), or through the disk
    cache where the plane declines them.

    Failure containment, in escalation order:

    * **Worker death** (crash, OOM kill, chaos ``os._exit``): the job
      the worker was running is charged the death and requeued — at
      most ``resubmit_limit`` times, after which its future fails with
      :class:`PoolBrokenError`; group-mates stacked behind it never
      started, so they are requeued uncharged — and the worker is
      replaced while ``restart_budget`` lasts, with
      jittered exponential backoff between restarts
      (:class:`~repro.engine.executor.RetryPolicy`), so a crash loop
      cannot hot-spin the supervisor.
    * **Wedged solve**: a worker holding one plan past
      ``job_deadline_s`` — or one whose heartbeat goes silent for
      ``heartbeat_s * heartbeat_misses`` — is terminated and handled as
      a death; a job that overran its deadline past its resubmission
      budget fails with :class:`JobDeadlineError`.
    * **Budget exhausted**: with no live workers left and no restarts
      remaining, the pool is *broken*: every queued/in-flight future
      fails with :class:`PoolBrokenError` and further submits raise it.
      Plans failed this way were never partially applied anywhere, so
      the caller may resubmit them on another backend.

    A ``chaos`` policy, when given, is shipped to every worker (arming
    the ``worker.kill`` site inside the job execution path) and armed
    in the supervisor for the ``future.drop`` / ``future.delay`` sites.

    The pool creates one shared-memory profile segment
    (:class:`~repro.engine.shm.SharedProfilePlane`) that every worker
    attaches to its process-global profile registry: a profile solved
    in any worker becomes zero-copy readable in all of them.  Creation
    failure (no ``/dev/shm``, permissions) is counted as
    ``compute.shared_plane_unavailable`` and the pool runs without a
    segment; profiles then cross workers only through the disk cache.

    The dispatcher stacks up to ``group_limit`` queued jobs of equal
    (config, solver, fault-set) identity onto one worker —
    unconditionally, because a group-mate stacked behind its head job
    costs a registry lookup while the same job raced on a spare worker
    re-solves the whole profile grid.  The stacked jobs run in order:
    the head job solves and publishes the group's profiles, the rest
    collapse to registry hits (see :func:`_pool_worker_main` for why
    sequential beats concurrent here).
    """

    #: Supervisor wake-up interval: bounds dispatch latency and the
    #: granularity of liveness/deadline checks.
    _TICK_S = 0.02

    def __init__(
        self,
        workers: int = 2,
        restart_budget: "int | None" = None,
        resubmit_limit: int = 2,
        heartbeat_s: float = 0.25,
        heartbeat_misses: int = 40,
        job_deadline_s: "float | None" = None,
        restart_policy: "RetryPolicy | None" = None,
        chaos_policy: "chaos.ChaosPolicy | None" = None,
        group_limit: int = 4,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if resubmit_limit < 0:
            raise ValueError(
                f"resubmit_limit must be >= 0, got {resubmit_limit}"
            )
        self.workers = workers
        self.restart_budget = (
            2 * workers if restart_budget is None else restart_budget
        )
        if self.restart_budget < 0:
            raise ValueError(
                f"restart_budget must be >= 0, got {self.restart_budget}"
            )
        self.resubmit_limit = resubmit_limit
        self.heartbeat_s = heartbeat_s
        self.heartbeat_misses = heartbeat_misses
        self.job_deadline_s = job_deadline_s
        self.restart_policy = restart_policy or RetryPolicy(
            retries=0, backoff_s=0.05, backoff_factor=2.0, jitter=0.25
        )
        self._chaos = (
            None
            if chaos_policy is None or chaos_policy.is_null
            else chaos_policy
        )
        self._ctx = multiprocessing.get_context()
        self._lock = threading.RLock()
        self._conn_failed: set[int] = set()  # wids whose pipe broke/EOFed
        self._jobs: dict[int, _Job] = {}
        self._queue: deque[_Job] = deque()
        self._pool: dict[int, _PoolWorker] = {}
        self._next_job = itertools.count()
        self._next_worker = itertools.count()
        self._restarts_used = 0
        self._restart_streak = 0  # consecutive restarts in the current burst
        self._last_death = 0.0
        self._restart_rng = random.Random(0xC0FFEE)
        self._restart_gate = 0.0  # monotonic time before which no respawn
        self._broken = False
        self._closing = False
        self._closed = False
        self._collector = obs.Collector()
        self._collector_lock = threading.Lock()
        self.group_limit = max(1, group_limit)
        self._shm = None
        from .shm import (
            SharedPlaneUnavailable,
            SharedProfilePlane,
            reap_stale_segments,
        )

        # Sweep segments leaked by crashed earlier processes before
        # claiming new shm space, then create this pool's segment —
        # *before* any worker spawns, so every worker's handle is valid
        # from its first job.
        reap_stale_segments()
        try:
            self._shm = SharedProfilePlane.create()
        except SharedPlaneUnavailable:
            self._note("compute.shared_plane_unavailable")
        with self._lock:
            for _ in range(workers):
                self._spawn_worker()
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-pool-supervisor", daemon=True
        )
        self._supervisor.start()

    @property
    def label(self) -> str:
        return f"procs[{self.workers}]"

    @property
    def broken(self) -> bool:
        return self._broken

    def alive_workers(self) -> int:
        with self._lock:
            return sum(
                1 for w in self._pool.values() if w.process.is_alive()
            )

    # -- submission ----------------------------------------------------------------

    def submit(
        self, plan: "ExperimentPlan", context: "RunContext"
    ) -> "Future[ExperimentResult]":
        spec = _spec_for(plan, context)
        job = _Job(
            next(self._next_job),
            _execute_spec,
            (spec,),
            name=f"plan {plan.name!r}",
            chaos_token=(plan.name, context.seed, 0),
            finish=self._finish_plan,
        )
        # Seed is deliberately *not* part of the group key: distinct
        # seeds of one configuration share every profile grid, so a
        # stacked seed still rides its head job's solves.
        job.group = (
            plan.cfg_hash, plan.solver, plan.fault_set, spec.cache_dir,
            spec.strict,
        )
        return self._admit(job)

    def call(self, fn: "Callable[..., Any]", *args: Any) -> Future:
        """Run ``fn(*args)`` on a pool worker; the future holds its value.

        ``fn`` and ``args`` must be picklable.  Calls are never grouped
        and carry no chaos token.  An exception raised by ``fn`` fails
        the future with :class:`ComputeJobError`; a worker lost while
        running the call fails it with :class:`PoolBrokenError` (or
        :class:`JobDeadlineError` for an overrun deadline) once the
        resubmission budget is spent.
        """
        name = f"call {getattr(fn, '__qualname__', fn)}"
        return self._admit(_Job(next(self._next_job), fn, args, name=name))

    def _admit(self, job: _Job) -> Future:
        with self._lock:
            if self._closed or self._closing:
                raise RuntimeError("compute backend is closed")
            if self._broken:
                raise PoolBrokenError(
                    "process pool is broken (restart budget exhausted)"
                )
            self._jobs[job.id] = job
            self._queue.append(job)
            self._note("compute.jobs")
        return job.future

    def _finish_plan(self, value: tuple) -> "ExperimentResult":
        result, snapshot = value
        if snapshot is not None:
            self.merge_observations(snapshot)
        return result

    def _note(self, name: str, n: int = 1) -> None:
        with self._collector_lock:
            self._collector.count(name, n)

    def merge_observations(self, snapshot: "Snapshot") -> None:
        with self._collector_lock:
            self._collector.merge(snapshot)

    def stats(self) -> "Snapshot":
        alive = self.alive_workers()  # before _collector_lock: lock order
        shm_stats = self._shm.stats() if self._shm is not None else None
        with self._collector_lock:
            self._collector.gauge("compute.workers_alive", alive)
            self._collector.gauge(
                "compute.restart_budget_left",
                self.restart_budget - self._restarts_used,
            )
            if shm_stats is not None:
                # Gauges, not counts: segment stats are cumulative
                # totals, and stats() may be polled repeatedly.
                for name, value in shm_stats.items():
                    self._collector.gauge(f"shm.{name}", value)
            return self._collector.snapshot()

    # -- supervisor ----------------------------------------------------------------

    def _spawn_worker(self) -> None:
        wid = next(self._next_worker)
        task_queue = self._ctx.Queue()
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_pool_worker_main,
            args=(
                wid,
                task_queue,
                send_conn,
                self.heartbeat_s,
                self._chaos,
                # Restarted workers receive the *same* handle, so a
                # replacement reattaches to the segment by name and
                # immediately sees every profile its predecessors
                # published.
                self._shm.handle() if self._shm is not None else None,
            ),
            name=f"repro-pool-{wid}",
            daemon=True,
        )
        process.start()
        # Drop the parent's copy of the send end: the worker process now
        # holds the only writer, so its death surfaces as EOF here.
        send_conn.close()
        self._pool[wid] = _PoolWorker(wid, process, task_queue, recv_conn)

    def _supervise(self) -> None:
        while True:
            with self._lock:
                conns = {
                    w.conn: w.wid
                    for w in self._pool.values()
                    if w.wid not in self._conn_failed
                }
            if conns:
                try:
                    ready = mp_connection.wait(
                        list(conns), timeout=self._TICK_S
                    )
                except OSError:
                    ready = []
            else:
                time.sleep(self._TICK_S)
                ready = []
            for conn in ready:
                wid = conns[conn]
                while True:
                    try:
                        if not conn.poll():
                            break
                        message = conn.recv()
                    # EOF: the worker died (its end is the only writer).
                    # Any other failure means a corrupt frame from a
                    # process that died mid-send; both are worker
                    # deaths, contained to this one pipe.
                    except Exception:  # noqa: BLE001
                        with self._lock:
                            self._conn_failed.add(wid)
                        break
                    self._handle_message(message)
            with self._lock:
                self._reap_and_restart()
                self._dispatch()
                if self._closing and not self._jobs and not self._queue:
                    break
        self._shutdown_workers()

    def _handle_message(self, message: tuple) -> None:
        kind, wid, body = message
        with self._lock:
            worker = self._pool.get(wid)
            if worker is not None:
                worker.last_beat = time.monotonic()
            if kind in ("beat", "ready", "bye"):
                return
            job_id = body[0]
            job = self._jobs.get(job_id)
            if worker is not None:
                worker.job_ids.pop(job_id, None)
            if job is None or job.future.done():
                return
            if job.wid != wid:
                # The job was requeued away from this worker (it looked
                # dead mid-plan) and a late duplicate result arrived
                # from the original epoch.  Merging it would double-count
                # every observation the retry also ships; drop it.
                self._note("compute.stale_results")
                return
            del self._jobs[job_id]
        if kind == "done":
            value = body[1]
            if job.finish is not None:
                value = job.finish(value)
            self._resolve(job, value)
        elif kind == "error":
            _, error_type, message_text, tb = body
            self._note("compute.job_errors")
            job.future.set_exception(
                ComputeJobError(error_type, message_text, tb)
            )

    def _resolve(self, job: _Job, result) -> None:
        """Complete one future, through the chaos future sites if armed."""
        if self._chaos is not None:
            if chaos.fires("future.drop"):
                self._note("compute.chaos_dropped_futures")
                job.future.set_exception(
                    chaos.ChaosError("injected compute-future drop")
                )
                return
            if chaos.fires("future.delay"):
                self._note("compute.chaos_delayed_futures")
                time.sleep(self._chaos.delay_future_ms / 1000.0)
        self._note("compute.completed")
        job.future.set_result(result)

    def _reap_and_restart(self) -> None:
        """Detect dead/wedged workers, requeue their plans, respawn."""
        now = time.monotonic()
        stale_after = self.heartbeat_s * self.heartbeat_misses
        for wid, worker in list(self._pool.items()):
            dead = not worker.process.is_alive()
            wedged = False
            if not dead and wid in self._conn_failed:
                # The pipe broke but the corpse is not reaped yet (or a
                # live process sent a corrupt frame): finish the job.
                worker.process.terminate()
                worker.process.join(timeout=5.0)
                dead = True
            if not dead:
                wedged = (
                    bool(worker.job_ids)
                    and self.job_deadline_s is not None
                    and now - worker.started_at > self.job_deadline_s
                )
                silent = now - worker.last_beat > stale_after
                if wedged or silent:
                    self._note(
                        "compute.worker_wedged"
                        if wedged
                        else "compute.worker_silent"
                    )
                    worker.process.terminate()
                    worker.process.join(timeout=5.0)
                    dead = True
            if dead:
                del self._pool[wid]
                self._conn_failed.discard(wid)
                try:
                    worker.conn.close()
                except OSError:
                    pass
                self._note("compute.worker_deaths")
                # A death after a quiet period starts a fresh backoff
                # burst; deaths inside one burst keep escalating it.
                if now - self._last_death > 5.0:
                    self._restart_streak = 0
                self._last_death = now
                self._requeue_or_fail(worker, wedged)
                worker.task_queue.close()
        while (
            len(self._pool) < self.workers
            and self._restarts_used < self.restart_budget
            and not self._broken
            and now >= self._restart_gate
        ):
            self._restarts_used += 1
            self._restart_streak += 1
            self._note("compute.worker_restarts")
            # Jittered exponential backoff between restarts (same
            # RetryPolicy machinery as task retries): a crash loop backs
            # off instead of stampeding, and concurrent pools never
            # synchronise their respawn bursts.
            self._restart_gate = now + self.restart_policy.delay(
                min(self._restart_streak, 5), self._restart_rng
            )
            self._spawn_worker()
        if not self._pool and self._restarts_used >= self.restart_budget:
            self._mark_broken()

    def _requeue_or_fail(self, worker: _PoolWorker, wedged: bool) -> None:
        """Requeue every job the dead worker held (a grouped batch may
        hold several).

        Only the job the worker was running — the first still in
        flight, since a batch runs in dispatch order — is charged the
        death; the jobs stacked behind it never started, so they keep
        their resubmission budget and their chaos token.
        """
        held = [
            job
            for job in map(self._jobs.get, worker.job_ids)
            if job is not None and not job.future.done()
        ]
        worker.job_ids.clear()
        for job in held:
            job.wid = None
            # Retry isolation: requeued jobs run alone, so a
            # repeatedly-crashing plan only ever charges its own
            # resubmission budget, never its group-mates'.
            job.group = None
        if held:
            head = held[0]
            head.attempts += 1
            if head.attempts > self.resubmit_limit:
                held.pop(0)
                del self._jobs[head.id]
                self._note("compute.job_losses")
                if wedged:
                    error: PoolBrokenError = JobDeadlineError(
                        f"{head.name} overran job_deadline_s="
                        f"{self.job_deadline_s}; resubmission budget exhausted"
                    )
                else:
                    error = PoolBrokenError(
                        f"{head.name} lost to {head.attempts} worker death(s); "
                        "resubmission budget exhausted"
                    )
                head.future.set_exception(error)
            elif head.chaos_token is not None:
                # Idempotent resubmission: the job re-keys the same
                # cache entry and deterministic drivers; only the chaos
                # token advances so an injected kill draws a fresh
                # decision.
                head.chaos_token = (*head.chaos_token[:-1], head.attempts)
        # Requeued jobs go to the front, in their dispatch order.
        self._queue.extendleft(reversed(held))
        if held:
            self._note("compute.requeues", len(held))

    def _mark_broken(self) -> None:
        if self._broken:
            return
        self._broken = True
        self._note("compute.pool_broken")
        failed = list(self._queue) + [
            job for job in self._jobs.values() if job not in self._queue
        ]
        self._queue.clear()
        self._jobs.clear()
        for job in failed:
            if not job.future.done():
                job.future.set_exception(
                    PoolBrokenError(
                        "process pool restart budget exhausted; "
                        f"{job.name} was not executed"
                    )
                )

    def _claim(self, job: _Job) -> bool:
        """Transition a queued job to running; False if it cancelled."""
        if job.future.cancelled():
            self._jobs.pop(job.id, None)
            return False
        if not job.dispatched:
            if not job.future.set_running_or_notify_cancel():
                self._jobs.pop(job.id, None)
                return False
            job.dispatched = True
        return True

    def _dispatch_affinity(self) -> None:
        """Append queued jobs to busy workers already running their group.

        A queued job whose identity is in flight somewhere is nearly
        free *on that worker* — the head job publishes the group's
        profiles, so a follower's solves collapse to registry hits —
        but expensive anywhere else: dispatched to an idle worker it
        races the in-flight solve stream in lockstep, re-solving every
        profile the stream has not published yet (all of them, on a
        busy machine) and burying the segment in duplicate puts.  So
        group followers chase their head job's worker even when idle
        workers are available.
        """
        for worker in self._pool.values():
            if not self._queue:
                return
            if (
                not worker.job_ids
                or worker.group is None
                or not worker.process.is_alive()
            ):
                continue
            room = self.group_limit - len(worker.job_ids)
            batch: list[_Job] = []
            scan = 0
            while room > 0 and scan < len(self._queue):
                candidate = self._queue[scan]
                if candidate.group != worker.group:
                    scan += 1
                    continue
                del self._queue[scan]
                if not self._claim(candidate):
                    continue
                batch.append(candidate)
                room -= 1
            if not batch:
                continue
            self._note("compute.affinity_dispatches")
            self._note("compute.grouped_jobs", len(batch))
            if not worker.grouped:
                # First append to this stream: the stream itself turns
                # into a group dispatch (head + followers).
                self._note("compute.group_dispatches")
                worker.grouped = True
            self._send(worker, batch)

    def _dispatch(self) -> None:
        if not self._queue:
            return
        self._dispatch_affinity()
        idle = [
            w
            for w in self._pool.values()
            if not w.job_ids and w.process.is_alive()
        ]
        while idle:
            batch: list[_Job] = []
            while self._queue and not batch:
                job = self._queue.popleft()
                if self._claim(job):
                    batch.append(job)
            if not batch:
                return
            # Stack same-group queue-mates onto this worker,
            # unconditionally up to group_limit.  A stacked group-mate
            # rides the head job's published profiles for near-free;
            # dispatched anywhere else it re-solves the whole grid in
            # lockstep with the head, so even with idle workers to
            # spare, duplicates belong behind their head job.
            if batch[0].group is not None:
                group = batch[0].group
                scan = 0
                while (
                    len(batch) < self.group_limit
                    and scan < len(self._queue)
                ):
                    candidate = self._queue[scan]
                    if candidate.group != group:
                        scan += 1
                        continue
                    del self._queue[scan]
                    if not self._claim(candidate):
                        continue
                    batch.append(candidate)
            # Warm placement: of the idle workers, prefer the one that
            # last ran this identity — its process-local registry
            # already holds the group's profiles.
            worker = next(
                (
                    w
                    for w in idle
                    if batch[0].group is not None
                    and w.group == batch[0].group
                ),
                idle[0],
            )
            idle.remove(worker)
            worker.group = batch[0].group
            worker.grouped = len(batch) > 1
            if len(batch) > 1:
                self._note("compute.group_dispatches")
                self._note("compute.grouped_jobs", len(batch))
            self._send(worker, batch)
            if not self._queue:
                return

    def _send(self, worker: _PoolWorker, batch: "list[_Job]") -> None:
        """Hand ``batch`` to ``worker``, pickling each job here.

        Pickling in the supervisor (rather than in the task queue's
        feeder thread, which only logs a failure) turns an unpicklable
        job into a failed future instead of one that never resolves.
        """
        wire = []
        for job in batch:
            try:
                wire.append(bytes(ForkingPickler.dumps(
                    (job.id, job.fn, job.args, job.chaos_token)
                )))
            except Exception as exc:  # noqa: BLE001 - the future carries it
                del self._jobs[job.id]
                job.future.set_exception(exc)
                continue
            job.wid = worker.wid
            worker.job_ids[job.id] = None
        if wire:
            worker.started_at = time.monotonic()
            worker.task_queue.put(wire)

    # -- lifecycle -----------------------------------------------------------------

    def _shutdown_workers(self) -> None:
        with self._lock:
            workers = list(self._pool.values())
            self._pool.clear()
        for worker in workers:
            try:
                worker.task_queue.put(None)
            except (ValueError, OSError):
                pass
        deadline = time.monotonic() + 5.0
        for worker in workers:
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5.0)
            worker.task_queue.close()
            worker.task_queue.cancel_join_thread()
            try:
                worker.conn.close()
            except OSError:
                pass

    def close(self, wait: bool = True) -> None:
        """Drain pending plans, stop the supervisor, reap every worker.

        Every admitted future is resolved before this returns — with a
        result, a :class:`ComputeJobError`, or a
        :class:`PoolBrokenError`; none are left pending, and no worker
        processes survive (the drain-under-failure contract).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._closing = True
        if wait:
            self._supervisor.join(timeout=120.0)
        else:
            self._supervisor.join(timeout=self._TICK_S)
        if self._shm is not None:
            self._shm.close()  # owner close unlinks the segment
            self._shm = None
