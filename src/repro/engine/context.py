"""Explicit run context threaded through the experiment drivers.

A :class:`RunContext` bundles everything an experiment needs that used
to live in module-level globals: the :class:`~repro.config.SystemConfig`
in force, a bounded config-hash-keyed :class:`~repro.xpoint.vmap.ModelCache`
of IR-drop models, the task executor, the on-disk result cache, and the
base RNG seed from which every workload generator's seed derives.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

import numpy as np

from ..config import SystemConfig, config_hash, default_config
from .cache import NullCache, ResultCache
from .executor import SerialExecutor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.model import FaultModel
    from ..obs.collector import Collector
    from ..techniques.base import Scheme
    from ..xpoint.vmap import ArrayIRModel, ModelCache
    from .executor import TaskError

__all__ = ["RunContext"]

_SEED_MIX = 0x9E3779B1  # odd golden-ratio constant: cheap stable mixing


class RunContext:
    """One run's configuration, caches, executor, seed, and fault model.

    ``seed`` perturbs every derived generator seed; the default ``0``
    preserves the historical per-driver seeds, so payloads stay
    bit-identical to the pre-engine code paths.

    ``faults`` injects a device-level
    :class:`~repro.faults.model.FaultModel` into every IR-drop model the
    context hands out; ``None`` (the default) models a perfect array.

    ``strict`` selects fail-fast semantics: executors propagate the
    first task exception instead of degrading to a partial result.  In
    the default (non-strict) mode, drivers report the final failure
    records and absorbed retries through :meth:`note_task_error` /
    :meth:`note_retries`; :func:`~repro.engine.runner.run_experiment`
    drains them into the :class:`~repro.engine.artifact.ExperimentResult`.

    ``collector`` opts the run into observability: the runner activates
    it for the duration of the experiment, every instrumented layer
    (caches, executors, solvers) records into it, and the resulting
    profile snapshot is attached to the
    :class:`~repro.engine.artifact.ExperimentResult` under
    ``extra["profile"]``.  ``None`` (the default) keeps all
    instrumentation in its zero-overhead no-op mode.

    ``solver`` names the IR-drop solver backend
    (:mod:`repro.circuit.solvers`) used by every model this context
    hands out; it participates in both the model cache key and the
    disk-cache experiment key, so results computed under different
    backends never alias.  ``None`` means the seed-exact ``reference``
    backend.

    Solved profile artefacts are not held here: models consult the
    process-global :data:`~repro.xpoint.vmap.profile_registry`, whose
    disk tier is the cache of the context whose plan is executing
    (:func:`~repro.engine.plan.execute_plan` scopes it), so contexts
    are cheap to evict and rebuild without losing solve work.
    """

    def __init__(
        self,
        config: SystemConfig | None = None,
        seed: int = 0,
        executor: "SerialExecutor | None" = None,
        cache: "ResultCache | NullCache | None" = None,
        model_cache: "ModelCache | None" = None,
        faults: "FaultModel | None" = None,
        strict: bool = False,
        collector: "Collector | None" = None,
        solver: str | None = None,
        params: "dict | None" = None,
    ) -> None:
        from ..circuit.solvers import solver_name

        self.config = config or default_config()
        self.seed = seed
        self.executor = executor or SerialExecutor()
        self.cache = cache or NullCache()
        if model_cache is None:
            from ..xpoint import vmap

            model_cache = vmap._DEFAULT_CACHE
        self.model_cache = model_cache
        self.faults = faults if faults is None or not faults.is_null else None
        self.strict = strict
        self.collector = collector
        # Validated eagerly so an unknown --solver fails at context
        # construction, not deep inside the first solve.
        self.solver = solver_name(solver)
        #: Experiment parameter overrides (e.g. ``{"samples": 64}`` from
        #: ``--mc-samples``).  Only parameters an experiment *declares*
        #: (``Experiment.params``) reach its driver and its cache key;
        #: undeclared entries are inert for that experiment.
        self.params = dict(params or {})
        self._schemes: dict[tuple[str, tuple[int, ...]], dict[str, Scheme]] = {}
        self._schemes_lock = threading.Lock()
        # Failure diagnostics are *per thread*: a warm context shared by
        # the service's compute plane runs one request per worker
        # thread, and request A draining request B's task errors would
        # silently reassign failures across payloads.
        self._diagnostics = threading.local()

    # -- failure bookkeeping ----------------------------------------------------

    def _diag(self) -> "threading.local":
        diag = self._diagnostics
        if not hasattr(diag, "errors"):
            diag.errors = []
            diag.retries = 0
        return diag

    def note_task_error(self, error: "TaskError") -> None:
        """Record one task's final failure (partial-result mode)."""
        self._diag().errors.append(error)

    def note_retries(self, count: int) -> None:
        """Record retries that executors absorbed on the way to success."""
        self._diag().retries += count

    def drain_diagnostics(self) -> tuple[tuple["TaskError", ...], int]:
        """Hand the accumulated (errors, retries) over and reset them.

        Scoped to the calling thread: each compute-plane worker drains
        only the diagnostics of the request it is executing.
        """
        diag = self._diag()
        errors = tuple(diag.errors)
        retries = diag.retries
        diag.errors = []
        diag.retries = 0
        return errors, retries

    # -- models -----------------------------------------------------------------

    def ir_model(self, config: SystemConfig | None = None) -> "ArrayIRModel":
        """The cached IR-drop model for ``config`` (default: this run's).

        When the context carries a fault model, the returned instance is
        built (and cached) with those faults injected; the context's
        solver backend selection is threaded through the same way.
        """
        return self.model_cache.get(
            config or self.config, faults=self.faults, solver=self.solver
        )

    def nominal_ir_model(
        self, config: SystemConfig | None = None
    ) -> "ArrayIRModel":
        """The *fault-free* cached IR-drop model for ``config``.

        Design-time calibrations (DRVR/UDRVR level solving, latency
        tables, endurance estimates) characterise the nominal array, so
        they must not see this run's injected faults — but they should
        still use the context's solver backend.
        """
        return self.model_cache.get(
            config or self.config, faults=None, solver=self.solver
        )

    def config_hash(self, config: SystemConfig | None = None) -> str:
        return config_hash(config or self.config)

    # -- schemes ----------------------------------------------------------------

    def schemes(
        self,
        config: SystemConfig | None = None,
        oracle_sections: tuple[int, ...] = (64, 128, 256),
    ) -> "dict[str, Scheme]":
        """The evaluation scheme registry, cached per config hash."""
        from ..techniques.stacks import standard_schemes

        config = config or self.config
        key = (config_hash(config), tuple(oracle_sections))
        registry = self._schemes.get(key)
        if registry is None:
            # The build happens outside the lock (it runs calibration
            # solves); concurrent builders of one key are redundant but
            # consistent, and first-insert-wins keeps every caller on a
            # single registry object afterwards.
            registry = standard_schemes(
                config,
                oracle_sections,
                model=self.nominal_ir_model(config),
            )
            with self._schemes_lock:
                registry = self._schemes.setdefault(key, registry)
        return registry

    # -- randomness -------------------------------------------------------------

    def seed_for(self, base: int, *tokens: "str | int") -> int:
        """Derive a generator seed from a driver's base seed.

        With the default context seed (0) and no extra tokens the base
        is returned unchanged, keeping payloads bit-identical to the
        historical hard-coded seeds; any other context seed or token mix
        perturbs it deterministically (no process-salted ``hash()``).
        """
        if self.seed == 0 and not tokens:
            return base
        mixed = base & 0x7FFFFFFF
        for token in (self.seed, *tokens):
            if isinstance(token, str):
                token = sum(ord(c) * 31**i for i, c in enumerate(token))
            mixed = (mixed ^ (int(token) & 0x7FFFFFFF)) * _SEED_MIX % (1 << 31)
        return mixed

    def rng(self, base: int, *tokens: "str | int") -> np.random.Generator:
        """A fresh NumPy generator seeded via :meth:`seed_for`."""
        return np.random.default_rng(self.seed_for(base, *tokens))
