"""Process-wide warm :class:`RunContext` instances shared across requests.

A cold ``RunContext`` is cheap to construct but expensive to *use*: the
first experiment through it builds IR-drop models, calibrates WL
models, solves BL profile grids, and assembles the per-config scheme
registry.  One-shot CLI invocations pay that once per process and exit;
a long-lived service (or repeated in-process :func:`run_experiment`
calls) must not pay it once per request.

:func:`warm_context` memoises contexts by everything that changes
results — config hash, seed, solver backend, fault model, cache
location, executor shape, strictness — so two requests with equal
parameters share one context object and with it the model cache and
scheme registry.  Parameters
that only change *reporting* (the obs collector) are deliberately not
part of the key: warm contexts carry no collector, and callers that
want a profile activate one around the execution instead
(:mod:`repro.engine.compute` does exactly that per request).

The registry is bounded and thread-safe; :func:`clear_warm_contexts`
drops it (tests and benchmarks use this to get cold timings).

Solved profile artefacts are deliberately *not* context state: they
live in the process-global :data:`~repro.xpoint.vmap.profile_registry`
and its per-directory disk tier.  Evicting or clearing a warm context
therefore never discards solve work, and a pool worker's contexts all
read the same registry.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING

from ..config import SystemConfig, config_hash
from .cache import NullCache, ResultCache
from .context import RunContext
from .executor import make_executor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.model import FaultModel

__all__ = ["clear_warm_contexts", "default_context", "warm_context"]

_MAX_WARM = 16

_LOCK = threading.Lock()
_CONTEXTS: "OrderedDict[tuple, RunContext]" = OrderedDict()


def _context_key(
    config: "SystemConfig | None",
    seed: int,
    solver: str | None,
    faults: "FaultModel | None",
    cache_dir: str | None,
    workers: int | None,
    strict: bool,
) -> tuple:
    from ..circuit.solvers import solver_name

    return (
        config_hash(config) if config is not None else None,
        seed,
        solver_name(solver),
        config_hash(faults) if faults is not None and not faults.is_null else None,
        # Absolute-path normalisation: a relative and an absolute
        # spelling of one directory must share one context, not race
        # two model caches onto one disk cache.
        os.path.abspath(cache_dir) if cache_dir is not None else None,
        workers,
        strict,
    )


def warm_context(
    config: "SystemConfig | None" = None,
    seed: int = 0,
    solver: str | None = None,
    faults: "FaultModel | None" = None,
    cache_dir: "str | None" = None,
    workers: int | None = None,
    strict: bool = False,
) -> RunContext:
    """The shared warm context for these run parameters.

    ``cache_dir=None`` disables the disk cache (``NullCache``); pass
    :data:`~repro.engine.cache.DEFAULT_CACHE_DIR` for the CLI default.
    Repeated calls with equal parameters return the *same* object —
    model caches stay hot and scheme registries are built once.
    """
    key = _context_key(config, seed, solver, faults, cache_dir, workers, strict)
    with _LOCK:
        context = _CONTEXTS.get(key)
        if context is not None:
            _CONTEXTS.move_to_end(key)
            return context
    # Construction happens outside the lock (it may import solver
    # backends); a racing builder of the same key is harmless — the
    # first insert wins and the loser is dropped (a context owns no
    # processes: a parallel executor's pool lives only inside one map).
    context = RunContext(
        config=config,
        seed=seed,
        executor=make_executor(workers, strict=strict),
        cache=NullCache() if cache_dir is None else ResultCache(cache_dir),
        faults=faults,
        strict=strict,
        solver=solver,
    )
    with _LOCK:
        existing = _CONTEXTS.get(key)
        if existing is not None:
            _CONTEXTS.move_to_end(key)
            return existing
        _CONTEXTS[key] = context
        while len(_CONTEXTS) > _MAX_WARM:
            _CONTEXTS.popitem(last=False)  # least recently used
    return context


def default_context() -> RunContext:
    """The warm context matching ``RunContext()`` defaults.

    :func:`repro.engine.runner.run_experiment` uses this when called
    without an explicit context, so back-to-back in-process calls reuse
    one model cache and scheme registry instead of rebuilding them per
    call.
    """
    return warm_context()


def clear_warm_contexts() -> None:
    """Drop every memoised context (next calls build cold ones).

    A caller still holding one of the dropped contexts can keep using
    it; contexts own no worker processes, so dropping one releases
    nothing but memory.
    """
    with _LOCK:
        _CONTEXTS.clear()


def warm_context_count() -> int:
    with _LOCK:
        return len(_CONTEXTS)
