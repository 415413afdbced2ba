"""Experiment engine: declarative registry, run context, executors,
and cached typed artifacts — split into a request plane and a compute
plane.

The engine turns "one figure = one function call" into a pipeline:

* :mod:`repro.engine.registry` — drivers self-register as declarative
  :class:`Experiment` records (name, simulation?, workloads, schema);
* :mod:`repro.engine.context` — :class:`RunContext` carries the config,
  a bounded config-hash-keyed model cache, the executor, the result
  cache, and the RNG seed;
* :mod:`repro.engine.warm` — process-wide memoised ("warm") contexts so
  repeated in-process runs and service requests share model caches;
* :mod:`repro.engine.plan` — :class:`ExperimentPlan`, the resolved
  request both front doors build, and :func:`execute_plan`, the one
  cache→drive→validate→store pipeline;
* :mod:`repro.engine.compute` — :class:`ComputeBackend` implementations
  (inline for the batch CLI, thread and supervised process pools for
  the service) that execute plans;
* :mod:`repro.engine.executor` — serial and process-pool executors with
  deterministic result ordering and per-task timing (cell-level fan-out
  *within* an experiment; sits underneath the compute plane);
* :mod:`repro.engine.cache` — opt-in on-disk result cache under
  ``.repro_cache/`` keyed by config/params/code-version hashes;
* :mod:`repro.engine.artifact` — :class:`ExperimentResult`, the typed
  payload + provenance record the CLI renders;
* :mod:`repro.engine.runner` — :func:`run_experiment`, the batch front
  door (build a plan, run it on a backend);
* :mod:`repro.engine.service` — :class:`EngineService`, the long-lived
  asyncio front door (``python -m repro serve``).
"""

from .artifact import ExperimentResult
from .cache import DEFAULT_CACHE_DIR, NullCache, ResultCache, cache_key
from .compute import (
    ComputeBackend,
    ComputeJobError,
    InlineBackend,
    PoolBrokenError,
    ProcessPoolBackend,
    ThreadPoolBackend,
    inline_backend,
)
from .context import RunContext
from .executor import (
    ParallelExecutor,
    RetryPolicy,
    SerialExecutor,
    TaskError,
    TaskResult,
    make_executor,
)
from .plan import ExperimentPlan, build_plan, execute_plan
from .registry import (
    Experiment,
    all_experiments,
    experiment,
    experiment_names,
    get_experiment,
    suggest,
)
from .runner import run_experiment
from .service import EngineService, ServeOptions
from .warm import clear_warm_contexts, default_context, warm_context

__all__ = [
    "ComputeBackend",
    "ComputeJobError",
    "DEFAULT_CACHE_DIR",
    "EngineService",
    "Experiment",
    "ExperimentPlan",
    "ExperimentResult",
    "InlineBackend",
    "NullCache",
    "ParallelExecutor",
    "PoolBrokenError",
    "ProcessPoolBackend",
    "ResultCache",
    "RetryPolicy",
    "RunContext",
    "SerialExecutor",
    "ServeOptions",
    "TaskError",
    "TaskResult",
    "ThreadPoolBackend",
    "all_experiments",
    "build_plan",
    "cache_key",
    "clear_warm_contexts",
    "default_context",
    "execute_plan",
    "experiment",
    "experiment_names",
    "get_experiment",
    "inline_backend",
    "make_executor",
    "run_experiment",
    "suggest",
    "warm_context",
]
