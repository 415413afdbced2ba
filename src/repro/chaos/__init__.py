"""Infrastructure-level chaos injection.

``repro.faults`` treats *device* failures — stuck cells, pump droop,
process spread — as injectable, sweepable distributions rather than
exceptional states.  This package applies the same posture to the
*serving infrastructure*: worker processes die mid-solve, compute
futures are dropped or delayed, and ``.repro_cache`` entries are
corrupted on read — all driven by a
seeded, replayable :class:`~repro.chaos.policy.ChaosPolicy` so a chaos
run is a deterministic test case, not a flake generator.

Call sites mirror :mod:`repro.obs`: the module-level injection points
(:func:`kill_point`, :func:`corrupt_point`, :func:`fires`) are no-ops — one ``None`` check — until a policy is
:func:`install`-ed, so production paths pay nothing.  The active policy
is process-global; worker processes receive the policy on each job spec
and install it themselves.

Event accounting is kept in a process-local counter table
(:func:`counts`) rather than only in :mod:`repro.obs`, because chaos
events must stay visible even when no collector is active — the chaos
smoke driver asserts on them through the service's ``stats`` op.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from .policy import SITE_RATES, ChaosPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from pathlib import Path

__all__ = [
    "ChaosError",
    "ChaosPolicy",
    "SITE_RATES",
    "active_policy",
    "counts",
    "fires",
    "injected",
    "install",
    "kill_point",
    "exit_point",
    "corrupt_point",
    "reset_counts",
    "uninstall",
]

#: Exit status of a chaos-killed worker process — distinguishable from
#: a genuine crash in supervisor logs and smoke-test output.
KILL_EXIT_CODE = 77


class ChaosError(RuntimeError):
    """An injected infrastructure failure (never a real computation bug)."""


class _State:
    """Process-global chaos state: the active policy plus event counters.

    ``seq`` numbers give order-dependent sites (cache reads, dispatch
    rounds) a token stream; decision *sites that must replay exactly*
    (worker kills) use caller-provided tokens built from stable request
    identity instead.
    """

    def __init__(self) -> None:
        self.policy: ChaosPolicy | None = None
        self.lock = threading.Lock()
        self.counts: dict[str, int] = {}
        self.seq: dict[str, int] = {}

    def next_token(self, site: str) -> int:
        with self.lock:
            token = self.seq.get(site, 0)
            self.seq[site] = token + 1
            return token

    def record(self, site: str) -> None:
        with self.lock:
            self.counts[site] = self.counts.get(site, 0) + 1


_STATE = _State()


def install(policy: ChaosPolicy) -> None:
    """Activate ``policy`` process-wide (replacing any previous one)."""
    _STATE.policy = None if policy is None or policy.is_null else policy


def uninstall() -> None:
    """Deactivate chaos injection (counters are kept for inspection)."""
    _STATE.policy = None


def active_policy() -> "ChaosPolicy | None":
    return _STATE.policy


@contextmanager
def injected(policy: ChaosPolicy) -> Iterator[ChaosPolicy]:
    """Scope a policy to a ``with`` block (tests use this)."""
    previous = _STATE.policy
    install(policy)
    try:
        yield policy
    finally:
        _STATE.policy = previous


def counts() -> dict:
    """Fired-event counts per site since the last :func:`reset_counts`."""
    with _STATE.lock:
        return dict(_STATE.counts)


def reset_counts() -> None:
    with _STATE.lock:
        _STATE.counts.clear()
        _STATE.seq.clear()


# -- injection points ----------------------------------------------------------


def fires(site: str, token: object = None) -> bool:
    """Decide (and record) one event; no-op ``False`` without a policy.

    ``token=None`` draws from the site's process-local sequence —
    deterministic given the same event *order*.  Sites that must replay
    independently of scheduling (worker kills) pass an explicit token
    derived from stable request identity.
    """
    policy = _STATE.policy
    if policy is None:
        return False
    if token is None:
        token = _STATE.next_token(site)
    if not policy.fires(site, token):
        return False
    _STATE.record(site)
    return True


def kill_point(token: object) -> "threading.Timer | None":
    """Maybe kill *this process* mid-solve (worker processes only).

    The exit is scheduled on a timer ``kill_delay_ms`` out, so the job
    has genuinely started executing when the process dies — the
    supervisor observes an in-flight death, not a refused job.  The
    caller receives the armed timer and must ``cancel()`` it once the
    job completes, so a kill aimed at a fast job cannot leak into the
    worker's *next* job (that would charge an innocent plan's
    resubmission budget).  ``kill_delay_ms=0`` exits immediately.
    """
    policy = _STATE.policy
    if policy is None:
        return None
    if not fires("worker.kill", token):
        return None
    if policy.kill_delay_ms <= 0:
        os._exit(KILL_EXIT_CODE)
    timer = threading.Timer(
        policy.kill_delay_ms / 1000.0, os._exit, args=(KILL_EXIT_CODE,)
    )
    timer.daemon = True
    timer.start()
    return timer


def exit_point(site: str, token: object = None) -> None:
    """Maybe ``os._exit`` *right here* (worker processes only).

    Unlike :func:`kill_point` there is no delay timer: the exit happens
    synchronously at the call site, which is the whole point — it lets
    the shared-memory plane die *while holding a stripe write lock*
    (``shm.kill_in_lock``), the crash mode its degradation path exists
    for.
    """
    if _STATE.policy is None:
        return
    if fires(site, token):
        os._exit(KILL_EXIT_CODE)


def corrupt_point(path: "Path") -> None:
    """Maybe bit-flip a cache entry before its envelope is read.

    Corruption lands mid-file, so the pickle envelope parses as damaged
    (truncated stream or checksum mismatch) and the cache's quarantine
    machinery — not the caller — absorbs the failure.
    """
    policy = _STATE.policy
    if policy is None:
        return
    if not fires("cache.corrupt"):
        return
    try:
        with open(path, "r+b") as handle:
            handle.seek(0, os.SEEK_END)
            size = handle.tell()
            if size == 0:
                return
            handle.seek(size // 2)
            chunk = handle.read(8)
            handle.seek(size // 2)
            handle.write(bytes(b ^ 0xFF for b in chunk))
    except OSError:
        return
