"""Counters, gauges and hierarchical tracing spans.

The collector is *opt-in*: module-level helpers (:func:`count`,
:func:`gauge`, :func:`span`) are no-ops — one ``None`` check, no
allocation — until a :class:`Collector` is activated, so instrumented
hot paths cost nothing in normal runs.  Activation is process-local;
the pool workers a :class:`~repro.engine.executor.ParallelExecutor`
map runs on (:class:`~repro.engine.compute.ProcessPoolBackend`) run
their own collector per task and ship a picklable :class:`Snapshot`
back for the parent to :meth:`Collector.merge`.

Spans nest: a span opened while another is active is recorded under the
joined path (``"experiment[name=fig04]/solve.reduced"``), so the
profile report shows where time inside an experiment actually went.
Timings use the monotonic :func:`time.perf_counter` clock.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "Collector",
    "Snapshot",
    "SpanStat",
    "activate",
    "active_collector",
    "collecting",
    "count",
    "deactivate",
    "gauge",
    "span",
]


@dataclass
class SpanStat:
    """Aggregated wall-clock statistics of one span path (seconds)."""

    count: int = 0
    total_s: float = 0.0
    min_s: float = math.inf
    max_s: float = 0.0

    def add(self, elapsed_s: float) -> None:
        self.count += 1
        self.total_s += elapsed_s
        self.min_s = min(self.min_s, elapsed_s)
        self.max_s = max(self.max_s, elapsed_s)

    def merge(self, other: "SpanStat") -> None:
        self.count += other.count
        self.total_s += other.total_s
        self.min_s = min(self.min_s, other.min_s)
        self.max_s = max(self.max_s, other.max_s)

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def to_plain(self) -> dict:
        return {
            "count": self.count,
            "total_s": self.total_s,
            "mean_s": self.mean_s,
            "min_s": self.min_s if self.count else 0.0,
            "max_s": self.max_s,
        }


@dataclass
class Snapshot:
    """A picklable point-in-time dump of a collector's state.

    Snapshots cross the process-pool boundary (plain dicts of scalars
    and :class:`SpanStat` records) and merge into a parent collector.
    """

    counters: dict[str, int] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    spans: dict[str, SpanStat] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return bool(self.counters or self.gauges or self.spans)

    def to_plain(self) -> dict:
        """JSON-exportable document (what ``--json`` / ``stats`` embed)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "spans": {
                name: stat.to_plain()
                for name, stat in sorted(self.spans.items())
            },
        }


class _Span:
    """One live span: a re-entrant-safe context manager."""

    __slots__ = ("_collector", "_name", "_path", "_start")

    def __init__(self, collector: "Collector", name: str) -> None:
        self._collector = collector
        self._name = name
        self._path = ""
        self._start = 0.0

    def __enter__(self) -> "_Span":
        stack = self._collector._stack
        self._path = (
            f"{stack[-1]}/{self._name}" if stack else self._name
        )
        stack.append(self._path)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        elapsed = time.perf_counter() - self._start
        stack = self._collector._stack
        if stack and stack[-1] == self._path:
            stack.pop()
        self._collector.record_span(self._path, elapsed)


class _NoopSpan:
    """Shared do-nothing span handed out while collection is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


def _span_name(name: str, tags: dict) -> str:
    if not tags:
        return name
    rendered = ",".join(f"{k}={tags[k]}" for k in sorted(tags))
    return f"{name}[{rendered}]"


class Collector:
    """Mutable store of counters, gauges and span timings.

    Instances are cheap, picklable (the live span stack is transient
    state and reset on unpickle is unnecessary — it is plain data) and
    single-process; cross-process aggregation goes through
    :meth:`snapshot` / :meth:`merge`.
    """

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.spans: dict[str, SpanStat] = {}
        self._stack: list[str] = []

    # -- recording --------------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)

    def span(self, name: str, /, **tags) -> _Span:
        return _Span(self, _span_name(name, tags))

    def record_span(self, path: str, elapsed_s: float) -> None:
        stat = self.spans.get(path)
        if stat is None:
            stat = self.spans[path] = SpanStat()
        stat.add(elapsed_s)

    # -- aggregation ------------------------------------------------------------

    def snapshot(self) -> Snapshot:
        """A detached copy safe to pickle, merge, or export."""
        return Snapshot(
            counters=dict(self.counters),
            gauges=dict(self.gauges),
            spans={
                name: SpanStat(s.count, s.total_s, s.min_s, s.max_s)
                for name, s in self.spans.items()
            },
        )

    def merge(self, other: "Snapshot | Collector") -> None:
        """Fold another collector's observations into this one."""
        for name, n in other.counters.items():
            self.count(name, n)
        # Last write wins for gauges, matching single-process semantics.
        self.gauges.update(other.gauges)
        for name, stat in other.spans.items():
            mine = self.spans.get(name)
            if mine is None:
                self.spans[name] = SpanStat(
                    stat.count, stat.total_s, stat.min_s, stat.max_s
                )
            else:
                mine.merge(stat)

    def reset(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.spans.clear()
        self._stack.clear()


#: The active collector is *thread-local* (None = collection disabled).
#: Single-threaded code sees the historical process-local behaviour;
#: the service's compute plane runs one request per worker thread, each
#: under its own collector, without the activations clobbering each
#: other (a collector instance itself is single-writer: only the thread
#: that activated it records into it, and aggregation goes through
#: snapshot()/merge()).
_STATE = threading.local()


def active_collector() -> Collector | None:
    """The collector currently receiving observations, if any."""
    return getattr(_STATE, "active", None)


def activate(collector: Collector | None = None) -> Collector:
    """Route subsequent :func:`count` / :func:`span` calls somewhere."""
    _STATE.active = collector if collector is not None else Collector()
    return _STATE.active


def deactivate() -> None:
    """Return to zero-overhead no-op mode."""
    _STATE.active = None


@contextmanager
def collecting(collector: Collector | None = None):
    """Activate ``collector`` for the duration of a ``with`` block.

    ``collecting(None)`` creates a fresh collector; either way the
    previously active collector (or disabled state) is restored on
    exit, so instrumented blocks nest safely.  Activation is per
    thread: a worker thread entering this block never redirects other
    threads' observations.
    """
    previous = getattr(_STATE, "active", None)
    _STATE.active = collector if collector is not None else Collector()
    try:
        yield _STATE.active
    finally:
        _STATE.active = previous


def count(name: str, n: int = 1) -> None:
    """Bump a counter on the active collector (no-op when disabled)."""
    collector = getattr(_STATE, "active", None)
    if collector is not None:
        collector.count(name, n)


def gauge(name: str, value: float) -> None:
    """Set a gauge on the active collector (no-op when disabled)."""
    collector = getattr(_STATE, "active", None)
    if collector is not None:
        collector.gauge(name, value)


def span(name: str, /, **tags) -> "_Span | _NoopSpan":
    """A timing span context manager (shared no-op when disabled).

    The span name is positional-only so a tag may itself be called
    ``name`` (``span("experiment", name="fig04")``).
    """
    collector = getattr(_STATE, "active", None)
    if collector is None:
        return _NOOP_SPAN
    return collector.span(name, **tags)
