"""Pluggable task executors: serial and process-pool parallel.

Executors run a batch of independent tasks — one top-level (picklable)
function applied to a list of picklable items — and return
:class:`TaskResult` records **in input order** with per-task wall
timing, so serial and parallel execution are interchangeable
deterministically.  The performance figures use this to fan the
independent (scheme, benchmark) simulation cells of Figs. 5c/15/16/17
out across cores.

Failure semantics (see docs/engine.md "Failure semantics"):

* By default executors never raise for a task failure.  A task that
  raises is retried per the :class:`RetryPolicy` (exponential backoff
  with deterministic jitter); a task that still fails is returned as a
  :class:`TaskResult` whose ``error`` is a structured
  :class:`TaskError` record, while every surviving task keeps its
  result — the caller receives a *partial* batch, in input order.
* ``strict=True`` restores fail-fast: the first task exception
  propagates unchanged and in-flight results are discarded.
* :class:`ParallelExecutor` additionally survives worker-process
  deaths (``BrokenProcessPool``): finished results are preserved and
  only the failed/orphaned tasks are re-run in a fresh pool.  After
  ``RetryPolicy.max_pool_deaths`` pool rebuilds the remaining tasks run
  serially in the parent process.  A per-task ``timeout_s`` bounds hung
  workers; an expired task is charged a ``TimeoutError`` attempt and
  the pool (which still holds the hung worker) is recycled.
"""

from __future__ import annotations

import os
import random
import sys
import threading
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Sequence

from .. import obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.collector import Snapshot

__all__ = [
    "RetryPolicy",
    "TaskError",
    "TaskResult",
    "SerialExecutor",
    "ParallelExecutor",
    "make_executor",
]

#: Shared by every ``workers`` validation site (ParallelExecutor and
#: make_executor must agree; negative counts are always a caller bug).
_WORKERS_MESSAGE = "workers must be >= 0 (0 = auto), got {count}"


@dataclass(frozen=True)
class RetryPolicy:
    """How task failures are retried and contained.

    ``retries`` counts re-runs after the first attempt (so a task runs
    at most ``retries + 1`` times).  Backoff between attempts grows
    exponentially and is jittered by a deterministic per-batch RNG, so
    retry schedules never synchronise across tasks yet stay
    reproducible.  ``timeout_s`` bounds one task's wall time (parallel
    executors only — a serial executor cannot preempt the task).
    ``max_pool_deaths`` bounds how many times a broken or hung process
    pool is rebuilt before the remaining tasks fall back to serial
    execution in the parent process.
    """

    retries: int = 2
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    jitter: float = 0.25  # +- fraction applied to each backoff delay
    timeout_s: float | None = None
    max_pool_deaths: int = 2

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff_s < 0 or self.backoff_factor < 1.0:
            raise ValueError("backoff must be >= 0 with factor >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.max_pool_deaths < 0:
            raise ValueError(
                f"max_pool_deaths must be >= 0, got {self.max_pool_deaths}"
            )

    @property
    def max_attempts(self) -> int:
        return self.retries + 1

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry number ``attempt`` (1-based), jittered."""
        base = self.backoff_s * self.backoff_factor ** (attempt - 1)
        if self.jitter:
            base *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(0.0, base)


@dataclass(frozen=True)
class TaskError:
    """Structured record of one task's final (post-retry) failure."""

    index: int
    error_type: str
    message: str
    attempts: int
    traceback: str = ""

    def to_plain(self) -> dict:
        """JSON-exportable record (what ``--json`` embeds)."""
        return {
            "index": self.index,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
        }


@dataclass(frozen=True)
class TaskResult:
    """One task's outcome: input position, value, wall time, attempts.

    ``error`` is ``None`` for a success; a failed task (after retries)
    carries a :class:`TaskError` and a ``None`` value.  ``obs`` holds
    the worker-side observability snapshot when the task ran in a pool
    worker while the parent was collecting (the executor merges it back
    into the parent's collector).  ``profiles`` carries the profile
    artefacts (BL drop profiles, WL calibrations) the task solved in a
    pool worker; the executor absorbs them into the parent's
    :data:`~repro.xpoint.vmap.profile_registry` so later tasks — and the
    parent's own models — skip those solves.
    """

    index: int
    value: Any
    wall_s: float
    attempts: int = 1
    error: TaskError | None = None
    obs: "Snapshot | None" = None
    profiles: "tuple | None" = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _drain_profile_exports() -> "tuple | None":
    """Profile artefacts this process solved since the last drain.

    Checked via ``sys.modules`` rather than imported: a worker whose
    tasks never touched the IR-drop stack must not pay for (or trigger)
    the import, and an unimported vmap cannot have anything to ship.
    """
    vmap = sys.modules.get("repro.xpoint.vmap")
    if vmap is None:
        return None
    return vmap.profile_registry.drain_exports() or None


def _timed_call(
    fn: Callable[[Any], Any],
    index: int,
    item: Any,
    collect: bool = False,
    ship: bool = False,
) -> TaskResult:
    """Run one task under timing (top-level so it pickles to workers).

    ``collect`` is set by parallel executors when the parent process is
    collecting observability data: the task runs under a fresh local
    collector (worker processes do not share the parent's) whose
    snapshot rides back on the :class:`TaskResult`.  ``ship`` (pool
    workers only) additionally drains the worker's profile-registry
    exports onto the result so the parent can absorb them.
    """
    start = time.perf_counter()
    if collect:
        local = obs.Collector()
        with obs.collecting(local):
            value = fn(item)
            # Drain *inside* the collecting scope: the registry counts
            # ship-back dedupe (and bytes saved) on drain, and those
            # counters must land in this task's snapshot to be seen.
            profiles = _drain_profile_exports() if ship else None
        snapshot = local.snapshot()
    else:
        value = fn(item)
        snapshot = None
        profiles = _drain_profile_exports() if ship else None
    return TaskResult(
        index=index,
        value=value,
        wall_s=time.perf_counter() - start,
        obs=snapshot,
        profiles=profiles,
    )


def _task_error(index: int, exc: BaseException, attempts: int) -> TaskError:
    return TaskError(
        index=index,
        error_type=type(exc).__name__,
        message=str(exc),
        attempts=attempts,
        traceback="".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__, limit=8)
        ),
    )


def _failed(index: int, exc: BaseException, attempts: int) -> TaskResult:
    return TaskResult(
        index=index,
        value=None,
        wall_s=0.0,
        attempts=attempts,
        error=_task_error(index, exc, attempts),
    )


def _note_batch(results: "list[TaskResult]") -> list[TaskResult]:
    """Record batch-level executor counters and absorb worker payloads.

    Worker-side observability snapshots and shipped profile artefacts
    are merged into the parent exactly once, here, whatever path
    produced the results (pool drain, pool rebuild, or serial fallback).
    """
    if any(result.profiles for result in results):
        from ..xpoint.vmap import profile_registry

        absorbed = 0
        for result in results:
            if result.profiles:
                absorbed += profile_registry.absorb(result.profiles)
        if absorbed:
            obs.count("profile_cache.shipped", absorbed)
    collector = obs.active_collector()
    if collector is None:
        return results
    collector.count("executor.tasks", len(results))
    for result in results:
        if result.attempts > 1:
            collector.count("executor.retries", result.attempts - 1)
        if not result.ok:
            collector.count("executor.failures")
        if result.obs is not None:
            collector.merge(result.obs)
    return results


class SerialExecutor:
    """Run tasks one after another in the calling process."""

    workers = 1

    def __init__(
        self, policy: RetryPolicy | None = None, strict: bool = False
    ) -> None:
        self.policy = policy or RetryPolicy()
        self.strict = strict

    @property
    def label(self) -> str:
        return "serial"

    def close(self) -> None:
        """Lifecycle no-op: a serial executor owns no worker processes.

        Exists so every executor honours the same close contract —
        context owners (:meth:`repro.engine.context.RunContext.close`,
        the warm-context registry) call it unconditionally.
        """

    def map(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> list[TaskResult]:
        with obs.span("executor.map", executor=self.label):
            if self.strict:
                results = [
                    _timed_call(fn, i, item) for i, item in enumerate(items)
                ]
            else:
                rng = random.Random(len(items))
                results = [
                    _retrying_call(fn, i, item, self.policy, rng)
                    for i, item in enumerate(items)
                ]
        return _note_batch(results)


def _next_wait_timeout(deadlines: "dict[Any, float]") -> float | None:
    """Seconds until the nearest task deadline, or ``None`` without one.

    ``deadlines`` is legitimately empty while tasks are in flight — a
    timeout-less policy, or timed tasks that have all expired while
    retries of clean failures are still queued — and ``min()`` over an
    empty mapping would raise ``ValueError`` mid-drain, so the empty
    case must degrade to an unbounded wait instead of being computed.
    """
    if not deadlines:
        return None
    return max(0.0, min(deadlines.values()) - time.monotonic())


def _retrying_call(
    fn: Callable[[Any], Any],
    index: int,
    item: Any,
    policy: RetryPolicy,
    rng: random.Random,
    attempts: int = 0,
) -> TaskResult:
    """Run one task in-process with retry/backoff, never raising.

    ``attempts`` counts tries already consumed elsewhere (a parallel
    executor hands partially-retried tasks to the serial fallback).
    """
    while True:
        attempts += 1
        try:
            result = _timed_call(fn, index, item)
        except Exception as exc:  # noqa: BLE001 - contained as TaskError
            if attempts < policy.max_attempts:
                time.sleep(policy.delay(attempts, rng))
                continue
            return _failed(index, exc, attempts)
        return replace(result, attempts=attempts)


class ParallelExecutor:
    """Fan tasks out over a :class:`~concurrent.futures.ProcessPoolExecutor`.

    ``fn`` and every item must be picklable (module-level functions and
    frozen dataclasses are).  Results come back in input order whatever
    the completion order, so a parallel run is a drop-in replacement for
    a serial one.  Worker failures are retried and contained per the
    :class:`RetryPolicy` unless ``strict`` is set (see the module
    docstring).
    """

    def __init__(
        self,
        workers: int | None = None,
        policy: RetryPolicy | None = None,
        strict: bool = False,
    ) -> None:
        if workers is not None and workers < 0:
            raise ValueError(_WORKERS_MESSAGE.format(count=workers))
        self.workers = workers or os.cpu_count() or 1
        self.policy = policy or RetryPolicy()
        self.strict = strict
        # Pools whose shutdown was issued without waiting: map() must
        # return promptly, but the executor still *owns* those worker
        # processes until close() joins them.  Without this registry a
        # discarded executor (warm-context eviction, a losing
        # construction racer) leaks children for the OS to reap.  Each
        # entry keeps the pool's worker-process map alongside it:
        # ``shutdown(wait=False)`` nulls ``pool._processes``, so the
        # registry's reference is the only handle left to join on.
        self._pools: "list[tuple[ProcessPoolExecutor, dict]]" = []
        self._managers: "list[threading.Thread]" = []  # see _release_pool
        self._pools_lock = threading.Lock()

    @property
    def label(self) -> str:
        return f"parallel[{self.workers}]"

    def _register_pool(self, pool: ProcessPoolExecutor) -> None:
        with self._pools_lock:
            # Opportunistic pruning keeps the registry bounded across a
            # long-lived executor's many map() calls: a pool whose
            # worker processes have all exited needs no further join.
            self._pools = [
                entry
                for entry in self._pools
                if any(proc.is_alive() for proc in tuple(entry[1].values()))
            ]
            self._pools.append((pool, pool._processes))
            self._managers = [t for t in self._managers if t.is_alive()]

    def _release_pool(self, pool: ProcessPoolExecutor) -> None:
        """Shut ``pool`` down without waiting; close() still reaps it.

        The pool's manager thread pops each exiting worker from
        ``pool._processes`` *before* joining it, so the registry keeps a
        copy of that map, and close() joins the manager thread first:
        when two threads reap one child, the one that loses the
        ``waitpid`` race reports the exiting worker as still alive.
        """
        with self._pools_lock:
            self._pools = [
                (entry, dict(processes) if entry is pool else processes)
                for entry, processes in self._pools
            ]
            if pool._executor_manager_thread is not None:
                self._managers.append(pool._executor_manager_thread)
        pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Join every worker process this executor ever started.

        Idempotent and safe concurrently with (or after) ``map``;
        subsequent ``map`` calls still work — close() is a reaping
        point, not a poison pill — but owners are expected to drop the
        executor afterwards.
        """
        with self._pools_lock:
            pools, self._pools = self._pools, []
            managers, self._managers = self._managers, []
        for pool, _processes in pools:
            pool.shutdown(wait=True, cancel_futures=True)
        for manager in managers:
            manager.join()
        for _pool, processes in pools:
            for proc in tuple(processes.values()):
                proc.join()

    def map(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> list[TaskResult]:
        if self.workers == 1 or len(items) <= 1:
            return SerialExecutor(self.policy, self.strict).map(fn, items)
        with obs.span("executor.map", executor=self.label):
            if self.strict:
                results = self._map_fail_fast(fn, items)
            else:
                results = self._map_resilient(fn, items)
        return _note_batch(results)

    # -- strict (historical) path ------------------------------------------------

    def _map_fail_fast(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> list[TaskResult]:
        collect = obs.active_collector() is not None
        with ProcessPoolExecutor(
            max_workers=min(self.workers, len(items))
        ) as pool:
            futures = [
                pool.submit(_timed_call, fn, i, item, collect, True)
                for i, item in enumerate(items)
            ]
            results = [future.result() for future in futures]
        results.sort(key=lambda result: result.index)
        return results

    # -- resilient path ----------------------------------------------------------

    def _map_resilient(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> list[TaskResult]:
        policy = self.policy
        rng = random.Random(len(items))  # deterministic backoff jitter
        results: dict[int, TaskResult] = {}
        attempts = [0] * len(items)
        pending = list(range(len(items)))
        pool_deaths = pool_lifetimes = 0
        while pending and pool_deaths < policy.max_pool_deaths:
            pool_lifetimes += 1
            pending, died = self._drain_pool(
                fn, items, pending, attempts, results, rng
            )
            if died:
                pool_deaths += 1
                obs.count("executor.pool_deaths")
        if pool_lifetimes > 1:
            obs.count("executor.pool_restarts", pool_lifetimes - 1)
        # Too many pool deaths (or a zero-death budget): finish serially.
        if pending:
            obs.count("executor.serial_fallback_tasks", len(pending))
        for index in pending:
            results[index] = _retrying_call(
                fn, index, items[index], policy, rng, attempts=attempts[index]
            )
        return [results[index] for index in sorted(results)]

    def _drain_pool(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        pending: list[int],
        attempts: list[int],
        results: dict[int, TaskResult],
        rng: random.Random,
    ) -> tuple[list[int], bool]:
        """Run ``pending`` tasks through one pool lifetime.

        Returns the tasks still owed a run plus whether the pool died
        (``BrokenProcessPool``).  A per-task timeout also ends the pool
        lifetime — the hung worker cannot be reclaimed any other way —
        but does not count as a pool death: each recycle consumes the
        expired task's attempt, so recycles are bounded.
        """
        policy = self.policy
        queue = list(reversed(pending))  # pop() preserves input order
        in_flight: dict[Any, int] = {}
        deadlines: dict[Any, float] = {}
        retry: list[int] = []

        def harvest_or_retry(index: int, exc: BaseException) -> None:
            if attempts[index] < policy.max_attempts:
                time.sleep(policy.delay(attempts[index], rng))
                retry.append(index)
            else:
                results[index] = _failed(index, exc, attempts[index])

        collect = obs.active_collector() is not None
        pool = ProcessPoolExecutor(max_workers=min(self.workers, len(pending)))
        self._register_pool(pool)
        died = False
        try:
            while queue or in_flight:
                while queue and len(in_flight) < self.workers:
                    index = queue.pop()
                    attempts[index] += 1
                    future = pool.submit(
                        _timed_call, fn, index, items[index], collect, True
                    )
                    in_flight[future] = index
                    if policy.timeout_s is not None:
                        deadlines[future] = time.monotonic() + policy.timeout_s
                done, _ = wait(
                    tuple(in_flight), timeout=_next_wait_timeout(deadlines),
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    index = in_flight.pop(future)
                    deadlines.pop(future, None)
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        # The pool is gone: every unfinished task is
                        # orphaned.  Charge them all the attempt (the
                        # culprit is unknowable) and hand them back.
                        died = True
                        harvest_or_retry(index, BrokenProcessPool(
                            "worker process died unexpectedly"
                        ))
                        for other_future, other in tuple(in_flight.items()):
                            if other_future.done():
                                try:
                                    ok = other_future.result()
                                except Exception as exc:  # noqa: BLE001
                                    harvest_or_retry(other, exc)
                                else:
                                    results[other] = replace(
                                        ok, attempts=attempts[other]
                                    )
                            else:
                                harvest_or_retry(other, BrokenProcessPool(
                                    "worker process died unexpectedly"
                                ))
                        in_flight.clear()
                        deadlines.clear()
                        queue_left = list(reversed(queue))
                        queue.clear()
                        return [
                            i for i in queue_left + retry if i not in results
                        ], True
                    except Exception as exc:  # noqa: BLE001 - contained
                        harvest_or_retry(index, exc)
                    else:
                        results[index] = replace(result, attempts=attempts[index])
                now = time.monotonic()
                expired = [
                    future
                    for future, deadline in deadlines.items()
                    if deadline <= now and not future.done()
                ]
                if expired:
                    # The workers running these tasks are hung; the only
                    # recovery is recycling the pool.  Tasks merely
                    # waiting in flight are refunded their attempt.
                    obs.count("executor.timeouts", len(expired))
                    for future in expired:
                        index = in_flight.pop(future)
                        del deadlines[future]
                        harvest_or_retry(index, TimeoutError(
                            f"task exceeded timeout_s={policy.timeout_s}"
                        ))
                    for future, index in in_flight.items():
                        if future.done():
                            try:
                                ok = future.result()
                            except Exception as exc:  # noqa: BLE001
                                harvest_or_retry(index, exc)
                                continue
                            results[index] = replace(ok, attempts=attempts[index])
                        else:
                            attempts[index] -= 1  # interrupted, not failed
                            retry.append(index)
                    in_flight.clear()
                    deadlines.clear()
                    queue_left = list(reversed(queue))
                    queue.clear()
                    for proc in tuple((pool._processes or {}).values()):
                        proc.terminate()  # reclaim the hung workers
                    return [
                        i for i in queue_left + retry if i not in results
                    ], False
                # Retries of tasks that failed cleanly rejoin this pool.
                queue[:0] = reversed(retry)
                retry.clear()
        finally:
            self._release_pool(pool)
        return [i for i in retry if i not in results], died


def make_executor(
    workers: int | None,
    policy: RetryPolicy | None = None,
    strict: bool = False,
) -> "SerialExecutor | ParallelExecutor":
    """Executor for a ``--workers`` count (None/0/1 -> serial)."""
    if workers is not None and workers < 0:
        raise ValueError(_WORKERS_MESSAGE.format(count=workers))
    if workers is None or workers <= 1:
        return SerialExecutor(policy, strict)
    return ParallelExecutor(workers, policy, strict)
