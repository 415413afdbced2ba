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
  propagates with its original type (a hung task raises
  ``TimeoutError``, a lost worker
  :class:`~repro.engine.compute.PoolBrokenError`).
* :class:`ParallelExecutor` runs each ``map`` on its own supervised
  :class:`~repro.engine.compute.ProcessPoolBackend`, closed before
  ``map`` returns, so no executor owns a process between calls.  A
  worker death costs only the task that worker held one attempt; after
  ``RetryPolicy.max_pool_deaths`` deaths the unfinished tasks run
  serially in the parent process.  ``RetryPolicy.timeout_s`` is the
  pool's job deadline: the hung worker is terminated and the task is
  charged a ``TimeoutError`` attempt, and is never re-run in the parent.
"""

from __future__ import annotations

import os
import random
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, wait
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
    ``max_pool_deaths`` bounds how many pool workers may die within one
    parallel ``map`` before the unfinished tasks fall back to serial
    execution in the parent process (``0`` runs non-strict maps
    serially from the start).
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
    into the parent's collector).
    """

    index: int
    value: Any
    wall_s: float
    attempts: int = 1
    error: TaskError | None = None
    obs: "Snapshot | None" = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _timed_call(
    fn: Callable[[Any], Any],
    index: int,
    item: Any,
    collect: bool = False,
) -> TaskResult:
    """Run one task under timing (top-level so it pickles to workers).

    ``collect`` is set by parallel executors when the parent process is
    collecting observability data: the task runs under a fresh local
    collector (worker processes do not share the parent's) whose
    snapshot rides back on the :class:`TaskResult`.
    """
    start = time.perf_counter()
    if collect:
        local = obs.Collector()
        with obs.collecting(local):
            value = fn(item)
        snapshot = local.snapshot()
    else:
        value = fn(item)
        snapshot = None
    return TaskResult(
        index=index,
        value=value,
        wall_s=time.perf_counter() - start,
        obs=snapshot,
    )


def _format_traceback(exc: BaseException) -> str:
    return "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__, limit=8)
    )


def _failed(
    index: int, exc: BaseException, attempts: int, tb: str | None = None
) -> TaskResult:
    """A failed task's result; ``tb`` overrides the exception's own
    traceback (which does not survive the trip back from a worker)."""
    return TaskResult(
        index=index,
        value=None,
        wall_s=0.0,
        attempts=attempts,
        error=TaskError(
            index=index,
            error_type=type(exc).__name__,
            message=str(exc),
            attempts=attempts,
            traceback=_format_traceback(exc) if tb is None else tb,
        ),
    )


@dataclass(frozen=True)
class _Raised:
    """A task's exception, returned (not raised) from a pool worker so
    its original type reaches the parent, with the worker traceback."""

    exc: Exception
    traceback: str


def _pool_task(
    fn: Callable[[Any], Any], index: int, item: Any, collect: bool
) -> "TaskResult | _Raised":
    """One parallel task, as run in a pool worker."""
    try:
        return _timed_call(fn, index, item, collect)
    except Exception as exc:  # noqa: BLE001 - shipped back to the parent
        return _Raised(exc, _format_traceback(exc))


def _note_batch(results: "list[TaskResult]") -> list[TaskResult]:
    """Record batch-level executor counters and merge worker snapshots.

    Worker-side observability snapshots are merged into the parent
    exactly once, here, whatever path produced the results (pool
    worker or serial fallback).
    """
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
    """Fan tasks out over worker processes, one supervised pool per map.

    ``fn`` and every item must be picklable (module-level functions and
    frozen dataclasses are).  Each ``map`` starts a
    :class:`~repro.engine.compute.ProcessPoolBackend` of
    ``min(workers, len(items))`` workers — forked from the caller's
    state at that moment — and closes it before returning.  Results come
    back in input order whatever the completion order, so a parallel run
    is a drop-in replacement for a serial one.  Worker failures are
    retried and contained per the :class:`RetryPolicy` unless ``strict``
    is set (see the module docstring).
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

    @property
    def label(self) -> str:
        return f"parallel[{self.workers}]"

    def map(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> list[TaskResult]:
        # A zero death budget means no pool at all (see RetryPolicy).
        pooled = self.strict or self.policy.max_pool_deaths > 0
        if self.workers == 1 or len(items) <= 1 or not pooled:
            return SerialExecutor(self.policy, self.strict).map(fn, items)
        with obs.span("executor.map", executor=self.label):
            results = self._map_pool(fn, items)
        return _note_batch(results)

    def _map_pool(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> list[TaskResult]:
        from .compute import JobDeadlineError, PoolBrokenError, ProcessPoolBackend

        policy, strict = self.policy, self.strict
        rng = random.Random(len(items))  # deterministic backoff jitter
        collect = obs.active_collector() is not None
        results: dict[int, TaskResult] = {}
        attempts = [0] * len(items)
        running: dict[Any, int] = {}  # future -> task index
        serial: list[int] = []  # tasks owed a run in this process
        timed_out: set[int] = set()  # never re-run in this process
        deaths = 0
        expired = f"task exceeded timeout_s={policy.timeout_s}"
        pool = ProcessPoolBackend(
            workers=min(self.workers, len(items)),
            # Each attempt can cost at most one worker, so the pool
            # never runs out of restarts before this map runs out of
            # attempts; the executor does its own death accounting.
            restart_budget=len(items) * policy.max_attempts,
            resubmit_limit=0,
            job_deadline_s=policy.timeout_s,
        )

        def launch(index: int) -> None:
            if deaths < policy.max_pool_deaths or strict:
                try:
                    future = pool.call(_pool_task, fn, index, items[index], collect)
                except PoolBrokenError:
                    pass  # the pool refuses work: run it here instead
                else:
                    attempts[index] += 1
                    running[future] = index
                    return
            if index in timed_out:
                results[index] = _failed(
                    index, TimeoutError(expired), attempts[index]
                )
            else:
                serial.append(index)

        def charge(index: int, exc: Exception, tb: str | None = None) -> None:
            """One failed attempt: raise (strict), retry, or record."""
            if strict:
                raise exc
            if attempts[index] < policy.max_attempts:
                time.sleep(policy.delay(attempts[index], rng))
                launch(index)
            else:
                results[index] = _failed(index, exc, attempts[index], tb)

        try:
            for index in range(len(items)):
                launch(index)
            while running:
                done, _ = wait(tuple(running), return_when=FIRST_COMPLETED)
                for future in done:
                    index = running.pop(future)
                    try:
                        outcome = future.result()
                    except JobDeadlineError:
                        obs.count("executor.timeouts")
                        timed_out.add(index)
                        charge(index, TimeoutError(expired))
                    except PoolBrokenError as exc:
                        deaths += 1
                        obs.count("executor.worker_deaths")
                        charge(index, exc)
                    except Exception as exc:  # noqa: BLE001 - ComputeJobError
                        charge(index, exc)
                    else:
                        if isinstance(outcome, _Raised):
                            charge(index, outcome.exc, outcome.traceback)
                        else:
                            results[index] = replace(
                                outcome, attempts=attempts[index]
                            )
                if deaths >= policy.max_pool_deaths and not strict:
                    # Death budget spent: tasks still queued in the pool
                    # run here; tasks already on a worker finish there.
                    for future, index in tuple(running.items()):
                        if future.cancel():
                            del running[future]
                            attempts[index] -= 1
                            launch(index)
        finally:
            for future in running:
                future.cancel()
            pool.close()
        if serial:
            obs.count("executor.serial_fallback_tasks", len(serial))
        for index in serial:
            results[index] = _retrying_call(
                fn, index, items[index], policy, rng, attempts=attempts[index]
            )
        return [results[index] for index in sorted(results)]


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
