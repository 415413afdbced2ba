"""Long-lived simulation service: the asyncio request plane.

``python -m repro serve`` turns the batch harness into a daemon: an
asyncio front end accepts newline-delimited JSON requests over TCP,
applies admission control and per-request deadlines, and hands
resolved :class:`~repro.engine.plan.ExperimentPlan` objects to the
compute plane (:class:`~repro.engine.compute.ThreadPoolBackend` or a
supervised :class:`~repro.engine.compute.ProcessPoolBackend`), where
warm shared :class:`~repro.engine.context.RunContext` instances and —
on the process plane — the shared-memory profile segment with
duplicate-identity group dispatch amortise model construction and
Newton factorisations across the whole request stream.

Wire protocol — one JSON object per line, one response line per
request (responses may interleave across concurrent requests on a
connection; match them by ``id``):

``{"op": "run", "id": 1, "experiment": "fig11a", "seed": 0, ...}``
    Run an experiment.  Optional fields: ``solver``, ``quick``,
    ``benchmarks``, ``fault_rate``, ``deadline_s``, ``no_cache`` and
    ``rid`` — a client-chosen idempotency key: a retried ``run``
    carrying the same ``rid`` joins the in-flight execution (or
    replays the cached successful response) instead of executing the
    experiment twice.
    Response: ``{"ok": true, "id": 1, "result": {experiment, meta,
    payload}}`` — the exact ``--json`` document of a batch run.
``{"op": "ping"}`` / ``{"op": "stats"}`` / ``{"op": "shutdown"}``
    Liveness probe, observability snapshot (queue depth, solver and
    cache counters, request latencies, breaker/ladder state), graceful
    drain-and-exit.

Failure envelope: ``{"ok": false, "id": ..., "error": {"code",
"message"}}`` with codes ``bad-request``, ``unknown-experiment``,
``rejected`` (admission control; do not retry), ``unavailable``
(transient infrastructure trouble or load shedding; retry with
backoff), ``deadline`` and ``internal``.

Graceful degradation: the compute plane is a *ladder* of backends —
``process`` (supervised worker processes) falls back to ``thread``,
which falls back to ``inline`` serial execution.  Infrastructure
failures (:class:`~repro.engine.compute.PoolBrokenError`, injected
:class:`~repro.chaos.ChaosError` drops) are retried transparently; when
they repeat within ``breaker_window_s`` the circuit breaker trips, the
service steps down one rung, and while the breaker is open admission is
halved (shed requests get the retryable ``unavailable`` code).  No
admitted request is ever lost to a trip: its plan is resubmitted on the
new rung.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from .. import chaos, obs
from .cache import DEFAULT_CACHE_DIR
from .compute import (
    PoolBrokenError,
    ProcessPoolBackend,
    ThreadPoolBackend,
    inline_backend,
)
from .plan import build_plan
from .registry import get_experiment
from .warm import warm_context

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .artifact import ExperimentResult
    from .compute import ComputeBackend
    from .plan import ExperimentPlan

__all__ = ["EngineService", "ServeOptions", "serve_main"]

#: Compute-plane rungs in degradation order; a service starts at its
#: configured plane and only ever moves right.
_LADDER = ("process", "thread", "inline")


@dataclass(frozen=True)
class ServeOptions:
    """Tunables of one service instance (all have serving defaults)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is printed/exposed
    compute_workers: int = 2
    #: Admission control: requests admitted (queued or running) at once.
    #: Arrivals beyond this are rejected immediately, never queued.
    max_pending: int = 32
    #: Deadline applied to requests that do not carry their own
    #: ``deadline_s``; ``None`` means unbounded.
    default_deadline_s: float | None = None
    #: Process rung: stack queued jobs of equal (config, solver,
    #: fault-set) identity onto one worker behind their head job.
    group_dispatch: bool = True
    #: Disk cache shared by every request (``None`` disables caching).
    cache_dir: str | None = DEFAULT_CACHE_DIR
    #: Default solver for requests that do not name one.
    solver: str | None = None
    #: Starting compute-plane rung: ``"process"``, ``"thread"`` or
    #: ``"inline"``.  Degradation only ever steps down this ladder.
    compute_plane: str = "thread"
    #: Restart budget handed to the process rung (``None`` = its default).
    restart_budget: int | None = None
    #: Shared-memory profile plane on the process rung (zero-copy
    #: cross-worker profile sharing; off falls back to pipe ship-back).
    shared_plane: bool = True
    #: Per-plan wall deadline on the process rung (wedged-worker reap).
    job_deadline_s: float | None = None
    #: Circuit breaker: this many infrastructure failures within
    #: ``breaker_window_s`` trip the service down one rung.
    breaker_threshold: int = 3
    breaker_window_s: float = 30.0
    #: While open (for this long after a trip) admission is halved and
    #: shed requests get the retryable ``unavailable`` code.
    breaker_cooldown_s: float = 5.0
    #: Per-request infrastructure retries before giving up with
    #: ``unavailable`` (each retry may land on a lower rung).
    infra_retries: int = 4
    #: Chaos policy installed process-wide and shipped to pool workers.
    chaos: "chaos.ChaosPolicy | None" = None
    #: Sweep-store directory: completed results are additionally
    #: spilled as typed rows (``repro.sweepstore``) instead of living
    #: only in transient JSON responses.  ``None`` disables the hook.
    sweep_dir: str | None = None
    #: Buffered rows per spilled shard (the buffer also flushes on
    #: graceful shutdown, so no completed result is ever lost).
    sweep_flush_rows: int = 256


class _RequestError(Exception):
    """A client-visible failure with a stable error code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


class EngineService:
    """Request plane: admission, deadlines, dispatch, graceful drain."""

    #: Successful responses replayable by ``rid`` (idempotency keys).
    _RID_CACHE = 256

    def __init__(self, options: ServeOptions | None = None) -> None:
        self.options = options or ServeOptions()
        if self.options.compute_plane not in _LADDER:
            raise ValueError(
                f"compute_plane must be one of {_LADDER}, "
                f"got {self.options.compute_plane!r}"
            )
        if self.options.chaos is not None:
            chaos.install(self.options.chaos)
        #: Rungs this service may occupy, starting at the configured one.
        self._ladder = _LADDER[_LADDER.index(self.options.compute_plane):]
        self._rung = 0
        self._backend: "ComputeBackend" = self._make_backend(self._ladder[0])
        self._breaker_state = "closed"
        self._breaker_opened = 0.0
        self._breaker_trips = 0
        self._infra_events: "deque[float]" = deque()
        self._reapers: list[threading.Thread] = []
        self._rids: "OrderedDict[str, asyncio.Future]" = OrderedDict()
        self._collector = obs.Collector()
        self._obs_lock = threading.Lock()
        self._pending = 0
        self._server: asyncio.base_events.Server | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._request_tasks: set[asyncio.Task] = set()
        self._shutdown = asyncio.Event()
        self._draining = False
        self._spill = None
        if self.options.sweep_dir is not None:
            from ..sweepstore.ingest import SweepSpill

            self._spill = SweepSpill(
                self.options.sweep_dir,
                flush_rows=self.options.sweep_flush_rows,
            )

    def _make_backend(self, kind: str) -> "ComputeBackend":
        options = self.options
        if kind == "process":
            return ProcessPoolBackend(
                workers=options.compute_workers,
                restart_budget=options.restart_budget,
                job_deadline_s=options.job_deadline_s,
                chaos_policy=options.chaos,
                shared_plane=options.shared_plane,
                group_dispatch=options.group_dispatch,
            )
        if kind == "thread":
            return ThreadPoolBackend(workers=options.compute_workers)
        return inline_backend()

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket (``port`` may be 0 = ephemeral)."""
        self._server = await asyncio.start_server(
            self._on_connection, self.options.host, self.options.port
        )

    @property
    def host(self) -> str:
        return self.options.host

    @property
    def port(self) -> int:
        """The bound port (resolves ephemeral port 0 after start)."""
        if self._server is None or not self._server.sockets:
            return self.options.port
        return self._server.sockets[0].getsockname()[1]

    @property
    def pending(self) -> int:
        """Requests admitted and not yet answered (queue + running)."""
        return self._pending

    async def wait_shutdown(self) -> None:
        """Block until a ``shutdown`` request (or :meth:`close`) lands."""
        await self._shutdown.wait()

    async def close(self, drain: bool = True) -> None:
        """Stop accepting; optionally drain in-flight requests first.

        With ``drain`` every admitted request still runs to completion
        and gets its response before the sockets die; without it,
        request tasks are cancelled (queued compute futures are
        cancelled too; a plan already executing on a worker thread
        finishes in the background but its response is dropped).
        """
        self._draining = True
        self._shutdown.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain:
            while self._request_tasks:
                await asyncio.gather(
                    *tuple(self._request_tasks), return_exceptions=True
                )
        else:
            for task in tuple(self._request_tasks):
                task.cancel()
            await asyncio.gather(
                *tuple(self._request_tasks), return_exceptions=True
            )
        for task in tuple(self._conn_tasks):
            task.cancel()
        await asyncio.gather(*tuple(self._conn_tasks), return_exceptions=True)
        self._backend.close()
        for reaper in self._reapers:
            reaper.join(timeout=30.0)
        if self._spill is not None:
            try:
                self._spill.flush()
            except Exception:  # noqa: BLE001 - drain must not fail on spill
                self._note("sweep.append_errors")
        # Segment janitor: the backend unlinked its own segment above;
        # this sweeps segments leaked by *earlier* crashed services,
        # under the same grace window the sweep-spill janitor uses.
        from .shm import reap_stale_segments

        try:
            reap_stale_segments()
        except OSError:
            pass
        if self.options.chaos is not None:
            chaos.uninstall()  # don't leak the policy past this service

    # -- observability -----------------------------------------------------------

    def _note(self, name: str, n: int = 1) -> None:
        with self._obs_lock:
            self._collector.count(name, n)

    def _note_latency(self, elapsed_s: float) -> None:
        with self._obs_lock:
            self._collector.record_span("service.request", elapsed_s)

    def _note_depth(self) -> None:
        with self._obs_lock:
            self._collector.gauge("service.queue_depth", self._pending)
            peak = self._collector.gauges.get("service.queue_depth_peak", 0.0)
            if self._pending > peak:
                self._collector.gauge(
                    "service.queue_depth_peak", self._pending
                )

    def stats(self) -> dict:
        """Service + compute-plane observability as a plain dict."""
        merged = obs.Collector()
        with self._obs_lock:
            merged.merge(self._collector.snapshot())
        backend = self._backend
        backend_stats = getattr(backend, "stats", None)
        if callable(backend_stats):
            merged.merge(backend_stats())
        plain = merged.snapshot().to_plain()
        plain["pending"] = self._pending
        plain["backend"] = getattr(
            backend, "label", type(backend).__name__
        )
        plain["breaker"] = {
            "state": self._breaker(),
            "trips": self._breaker_trips,
            "rung": self._ladder[self._rung],
            "ladder": list(self._ladder),
            "threshold": self.options.breaker_threshold,
            "window_s": self.options.breaker_window_s,
        }
        policy = chaos.active_policy()
        if policy is not None:
            plain["chaos"] = {"spec": policy.spec(), "counts": chaos.counts()}
        return plain

    # -- degradation ladder / circuit breaker ------------------------------------

    def _breaker(self) -> str:
        """Current breaker state (lazily closes after the cooldown)."""
        if (
            self._breaker_state == "open"
            and time.monotonic() - self._breaker_opened
            >= self.options.breaker_cooldown_s
        ):
            self._breaker_state = "closed"
            with self._obs_lock:
                self._collector.gauge("service.breaker_open", 0)
        return self._breaker_state

    def _infra_failure(self, backend: "ComputeBackend") -> None:
        """Record one infrastructure failure; maybe trip down a rung.

        A backend that declares itself broken trips immediately;
        otherwise ``breaker_threshold`` failures inside
        ``breaker_window_s`` do.  Runs on the event loop thread only.
        """
        self._note("service.infra_failures")
        now = time.monotonic()
        self._infra_events.append(now)
        window = self.options.breaker_window_s
        while self._infra_events and now - self._infra_events[0] > window:
            self._infra_events.popleft()
        if backend is not self._backend:
            return  # a concurrent request already tripped the ladder
        broken = getattr(backend, "broken", False)
        if broken or len(self._infra_events) >= self.options.breaker_threshold:
            self._trip()

    def _trip(self) -> None:
        """Open the breaker and step the compute plane down one rung."""
        if self._rung + 1 >= len(self._ladder):
            return  # already on the lowest rung; keep serving inline
        old = self._backend
        self._rung += 1
        self._backend = self._make_backend(self._ladder[self._rung])
        self._breaker_state = "open"
        self._breaker_opened = time.monotonic()
        self._breaker_trips += 1
        self._infra_events.clear()
        self._note("service.breaker_trips")
        # Fold the dying backend's counters into the service collector:
        # worker-death and requeue history must survive the trip (stats
        # otherwise only reflects the *current* backend).
        old_stats = getattr(old, "stats", None)
        with self._obs_lock:
            if callable(old_stats):
                self._collector.merge(old_stats())
            self._collector.gauge("service.breaker_open", 1)
            self._collector.gauge("service.rung", self._rung)
        # The old backend drains in the background: its close() joins a
        # supervisor/pool and must not stall the event loop.  In-flight
        # futures on it still resolve (or fail over to the new rung).
        reaper = threading.Thread(
            target=old.close, name="repro-backend-reaper", daemon=True
        )
        reaper.start()
        self._reapers.append(reaper)

    # -- request handling --------------------------------------------------------

    async def submit(self, request: dict) -> dict:
        """Handle one decoded request document (also the in-process API)."""
        if not isinstance(request, dict):
            return _error_doc(None, "bad-request", "request must be an object")
        request_id = request.get("id")
        op = request.get("op", "run")
        try:
            if op == "ping":
                return {"ok": True, "id": request_id, "op": "ping"}
            if op == "stats":
                return {"ok": True, "id": request_id, "stats": self.stats()}
            if op == "shutdown":
                self._shutdown.set()
                return {"ok": True, "id": request_id, "op": "shutdown"}
            if op != "run":
                raise _RequestError("bad-request", f"unknown op {op!r}")
            rid = request.get("rid")
            if rid is not None:
                if not isinstance(rid, str) or not rid:
                    raise _RequestError(
                        "bad-request", "rid must be a non-empty string"
                    )
                return await self._run_deduped(rid, request)
            result = await self._run_request(request)
            return {"ok": True, "id": request_id, "result": result.to_plain()}
        except _RequestError as error:
            return _error_doc(request_id, error.code, str(error))
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - client gets an envelope
            return _error_doc(
                request_id, "internal", f"{type(exc).__name__}: {exc}"
            )

    async def _run_deduped(self, rid: str, request: dict) -> dict:
        """Idempotent ``run``: duplicates of ``rid`` never re-execute.

        A duplicate arriving while the original is in flight awaits the
        same outcome; one arriving after a *successful* completion
        replays the cached response.  Failed outcomes are not cached —
        a client retrying after an error genuinely wants a fresh
        execution — so only successes are protected against
        double-execution, which is exactly the retry-safety contract.
        """
        request_id = request.get("id")
        existing = self._rids.get(rid)
        if existing is not None:
            self._note("service.rid_joined")
            # shield(): a duplicate's cancellation must not cancel the
            # original request's execution.
            doc = await asyncio.shield(existing)
            return dict(doc, id=request_id)
        holder: asyncio.Future = asyncio.get_running_loop().create_future()
        self._rids[rid] = holder
        try:
            result = await self._run_request(request)
        except _RequestError as error:
            self._rids.pop(rid, None)
            doc = _error_doc(request_id, error.code, str(error))
            holder.set_result(doc)
            return doc
        except BaseException as exc:
            self._rids.pop(rid, None)
            if not holder.done():
                holder.set_result(
                    _error_doc(
                        request_id, "internal", f"{type(exc).__name__}: {exc}"
                    )
                )
            raise
        doc = {"ok": True, "id": request_id, "result": result.to_plain()}
        holder.set_result(doc)
        self._rids.move_to_end(rid)
        while len(self._rids) > self._RID_CACHE:
            for key, value in self._rids.items():
                if value.done():
                    del self._rids[key]
                    break
            else:
                break
        return doc

    async def _run_request(self, request: dict) -> "ExperimentResult":
        name = request.get("experiment")
        if not isinstance(name, str) or not name:
            raise _RequestError("bad-request", "missing experiment name")
        try:
            experiment = get_experiment(name)
        except KeyError as exc:
            raise _RequestError(
                "unknown-experiment", str(exc).strip('"')
            ) from None

        # Admission control: beyond max_pending the request is refused
        # outright — a bounded queue keeps worst-case latency bounded
        # and pushes overload back to the clients instead of hiding it.
        # While the breaker is open the limit is halved (load shedding)
        # and shed requests get the *retryable* ``unavailable`` code:
        # the service is mid-degradation, come back shortly.
        if self._draining:
            raise _RequestError("rejected", "service is shutting down")
        limit = self.options.max_pending
        if self._breaker() == "open":
            limit = max(1, limit // 2)
            if self._pending >= limit:
                self._note("service.shed")
                raise _RequestError(
                    "unavailable",
                    "circuit breaker open: service is shedding load",
                )
        if self._pending >= limit:
            self._note("service.rejected")
            raise _RequestError(
                "rejected",
                f"admission queue full ({limit} pending)",
            )

        context, settings = self._resolve(request, experiment.simulation)
        plan = build_plan(name, context, settings)
        deadline_s = request.get("deadline_s", self.options.default_deadline_s)
        if deadline_s is not None and (
            not isinstance(deadline_s, (int, float)) or deadline_s <= 0
        ):
            raise _RequestError("bad-request", "deadline_s must be positive")

        self._pending += 1
        self._note("service.admitted")
        self._note_depth()
        start = time.monotonic()
        try:
            if deadline_s is None:
                result = await self._execute(plan, context)
            else:
                task = asyncio.ensure_future(self._execute(plan, context))
                try:
                    result = await asyncio.wait_for(
                        asyncio.shield(task), timeout=deadline_s
                    )
                except asyncio.TimeoutError:
                    # A queued plan is withdrawn; a running one cannot
                    # be preempted mid-driver — it finishes on the
                    # worker (warming caches for its successors) but
                    # the response is the deadline error either way.
                    task.cancel()
                    await asyncio.gather(task, return_exceptions=True)
                    self._note("service.deadline_expired")
                    raise _RequestError(
                        "deadline",
                        f"request exceeded deadline_s={deadline_s}",
                    ) from None
            self._note("service.completed")
            self._sweep_append(plan, result)
            return result
        finally:
            self._pending -= 1
            self._note_depth()
            self._note_latency(time.monotonic() - start)

    def _sweep_append(
        self, plan: "ExperimentPlan", result: "ExperimentResult"
    ) -> None:
        """Spill one completed result into the sweep store (best effort).

        Row extraction and the occasional shard write are fast relative
        to an experiment, so this runs inline on the completion path; a
        sweep-store failure is counted, never propagated — responses do
        not depend on the analytics sink.
        """
        if self._spill is None:
            return
        try:
            appended = self._spill.add(
                result, solver=plan.solver, fault_set=plan.fault_set
            )
            if appended:
                self._note("sweep.appended_rows", appended)
        except Exception:  # noqa: BLE001 - the sink must not break serving
            self._note("sweep.append_errors")

    async def _execute(
        self, plan: "ExperimentPlan", context
    ) -> "ExperimentResult":
        """Run one plan through the backend ladder until it resolves.

        Infrastructure failures — a broken process pool, an injected
        future drop, a backend closed underneath us by a concurrent
        breaker trip — are retried transparently, each attempt landing
        on whatever rung the service currently occupies, so an admitted
        request survives its compute plane dying.  Real task failures
        (the experiment itself raised) propagate unchanged and are
        never retried.
        """
        last: "BaseException | None" = None
        for attempt in range(self.options.infra_retries + 1):
            backend = self._backend
            if attempt:
                self._note("service.infra_retried")
            try:
                future = backend.submit(plan, context)
            except PoolBrokenError as exc:
                self._infra_failure(backend)
                last = exc
                continue
            except RuntimeError as exc:
                # "backend is closed": a trip swapped it out between our
                # read and the submit; the next attempt sees the new one.
                last = exc
                continue
            try:
                return await asyncio.wrap_future(future)
            except asyncio.CancelledError:
                if future.cancel():
                    self._note("service.deadline_cancelled")
                else:
                    self._note("service.deadline_abandoned")
                    # Retrieve the eventual outcome so an abandoned
                    # plan that fails does not log "exception was
                    # never retrieved" long after the response went.
                    future.add_done_callback(_swallow_outcome)
                raise
            except PoolBrokenError as exc:
                self._infra_failure(backend)
                last = exc
            except chaos.ChaosError as exc:
                # An injected infrastructure fault (dropped future):
                # retry on the same rung — execution is idempotent.
                self._note("service.chaos_absorbed")
                last = exc
        raise _RequestError(
            "unavailable",
            f"compute plane unavailable after "
            f"{self.options.infra_retries + 1} attempts: {last}",
        )

    def _resolve(self, request: dict, simulation: bool):
        """Warm context + settings for one request's parameters."""
        seed = request.get("seed", 0)
        if not isinstance(seed, int):
            raise _RequestError("bad-request", "seed must be an integer")
        solver = request.get("solver", self.options.solver)
        faults = None
        fault_rate = request.get("fault_rate")
        if fault_rate is not None:
            if not isinstance(fault_rate, (int, float)) or fault_rate < 0:
                raise _RequestError(
                    "bad-request", "fault_rate must be a non-negative number"
                )
            from ..faults import FaultModel

            faults = FaultModel.at_rate(float(fault_rate), seed=seed)
        cache_dir = (
            None if request.get("no_cache") else self.options.cache_dir
        )
        try:
            context = warm_context(
                seed=seed, solver=solver, faults=faults, cache_dir=cache_dir
            )
        except ValueError as exc:  # unknown solver backend
            raise _RequestError("bad-request", str(exc)) from None

        settings = None
        if simulation:
            from ..analysis.experiments import PerfSettings
            from ..workloads import benchmark_suite

            benchmarks = request.get("benchmarks")
            if benchmarks is not None:
                known = tuple(benchmark_suite())
                unknown = [b for b in benchmarks if b not in known]
                if unknown:
                    raise _RequestError(
                        "bad-request", f"unknown benchmarks {unknown}"
                    )
                benchmarks = tuple(benchmarks)
            settings = PerfSettings(
                accesses_per_core=2500 if request.get("quick") else 8000,
                benchmarks=benchmarks,
            )
        return context, settings

    # -- wire protocol -----------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        write_lock = asyncio.Lock()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    request = json.loads(line)
                except json.JSONDecodeError as exc:
                    await self._respond(
                        writer,
                        write_lock,
                        _error_doc(None, "bad-request", f"invalid JSON: {exc}"),
                    )
                    continue
                # Each request line is served concurrently so one slow
                # experiment does not head-of-line-block the connection.
                request_task = asyncio.ensure_future(
                    self._serve_one(request, writer, write_lock)
                )
                self._request_tasks.add(request_task)
                request_task.add_done_callback(self._request_tasks.discard)
        except (ConnectionResetError, asyncio.CancelledError):
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:  # noqa: BLE001 - connection teardown
                pass

    async def _serve_one(
        self,
        request: dict,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        response = await self.submit(request)
        await self._respond(writer, write_lock, response)

    @staticmethod
    async def _respond(
        writer: asyncio.StreamWriter, write_lock: asyncio.Lock, doc: dict
    ) -> None:
        data = json.dumps(doc, separators=(",", ":")).encode() + b"\n"
        async with write_lock:
            try:
                writer.write(data)
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass


def _swallow_outcome(future: "asyncio.Future") -> None:
    if not future.cancelled():
        future.exception()


def _error_doc(request_id: Any, code: str, message: str) -> dict:
    return {
        "ok": False,
        "id": request_id,
        "error": {"code": code, "message": message},
    }


def serve_main(argv: "list[str] | None" = None) -> int:
    """``python -m repro serve`` entry point."""
    import argparse

    from ..circuit.solvers import available_solvers

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Serve experiment requests over newline-delimited JSON.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=7327,
        help="listening port (0 = ephemeral; the bound port is printed)",
    )
    parser.add_argument(
        "--compute-workers", type=int, default=2, metavar="N",
        help="concurrent experiment plans on the compute plane",
    )
    parser.add_argument(
        "--max-pending", type=int, default=32, metavar="N",
        help="admission limit: requests queued or running at once",
    )
    parser.add_argument(
        "--deadline", type=float, default=None, metavar="S",
        help="default per-request deadline in seconds (unbounded if unset)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="serve without the on-disk result cache",
    )
    parser.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
        help=f"result cache location (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--solver", choices=available_solvers(), default=None,
        metavar="BACKEND",
        help="default solver backend for requests that do not name one",
    )
    parser.add_argument(
        "--compute-plane", choices=list(_LADDER), default="thread",
        help="starting compute-plane rung (degradation only steps down)",
    )
    parser.add_argument(
        "--restart-budget", type=int, default=None, metavar="N",
        help="process-plane worker restarts before the pool is broken",
    )
    parser.add_argument(
        "--no-shared-plane", action="store_true",
        help="disable the process-plane shared-memory profile segment "
        "(workers fall back to pipe ship-back of solved profiles)",
    )
    parser.add_argument(
        "--breaker-threshold", type=int, default=3, metavar="N",
        help="infrastructure failures in the window that trip the breaker",
    )
    parser.add_argument(
        "--breaker-cooldown", type=float, default=5.0, metavar="S",
        help="seconds of load shedding after a breaker trip",
    )
    parser.add_argument(
        "--sweep-dir", default=None, metavar="DIR",
        help="also spill completed results as typed rows into this "
        "sweep store (see 'python -m repro sweep')",
    )
    parser.add_argument(
        "--sweep-flush-rows", type=int, default=256, metavar="N",
        help="buffered rows per spilled sweep shard (the buffer also "
        "flushes on graceful shutdown)",
    )
    parser.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="chaos policy spec, e.g. 'seed=7,kill_worker_rate=0.3' "
             "(see repro.chaos.ChaosPolicy)",
    )
    args = parser.parse_args(argv)
    chaos_policy = None
    if args.chaos:
        from ..chaos import ChaosPolicy

        try:
            chaos_policy = ChaosPolicy.parse(args.chaos)
        except ValueError as exc:
            parser.error(str(exc))
    options = ServeOptions(
        host=args.host,
        port=args.port,
        compute_workers=args.compute_workers,
        max_pending=args.max_pending,
        default_deadline_s=args.deadline,
        cache_dir=None if args.no_cache else args.cache_dir,
        solver=args.solver,
        compute_plane=args.compute_plane,
        restart_budget=args.restart_budget,
        shared_plane=not args.no_shared_plane,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown,
        chaos=chaos_policy,
        sweep_dir=args.sweep_dir,
        sweep_flush_rows=max(1, args.sweep_flush_rows),
    )

    async def _amain() -> int:
        service = EngineService(options)
        await service.start()
        print(
            f"repro service listening on {service.host}:{service.port}",
            flush=True,
        )
        loop = asyncio.get_running_loop()
        try:
            import signal

            for sig in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(sig, service._shutdown.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
        await service.wait_shutdown()
        print("repro service draining...", flush=True)
        await service.close(drain=True)
        print("repro service stopped", flush=True)
        return 0

    return asyncio.run(_amain())
