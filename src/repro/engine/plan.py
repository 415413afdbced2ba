"""Shared request -> task layer: experiment plans and their execution.

A :class:`ExperimentPlan` is the resolved, immutable description of one
experiment request: the registry record, the settings in force, the
config hash, and the disk-cache key.  Building a plan is cheap and
side-effect free; executing it (:func:`execute_plan`) runs the
cache-check -> drive -> validate -> store pipeline that used to live
inside :func:`repro.engine.runner.run_experiment`.

The split exists so the batch front door (``runner.py``) and the
long-lived service front door (:mod:`repro.engine.service`) share one
task-building and result-assembly path: both planes produce plans and
hand them to a :class:`~repro.engine.compute.ComputeBackend`, so a
payload served over a socket is assembled by exactly the same code as
one printed by ``python -m repro <exp>``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .. import obs
from ..config import config_hash
from .artifact import ExperimentResult
from .cache import MISSING, cache_key
from .registry import get_experiment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.experiments import PerfSettings
    from .context import RunContext
    from .registry import Experiment

__all__ = ["ExperimentPlan", "build_plan", "execute_plan"]


def _declared_params(experiment: "Experiment", context: "RunContext") -> dict:
    """Context parameter overrides the experiment declares, by name.

    The intersection keeps the params channel safe by construction: a
    context carrying ``{"samples": 64}`` perturbs only experiments that
    declare a ``samples`` parameter — every other driver's kwargs and
    cache key are untouched.
    """
    declared = getattr(experiment, "params", ())
    overrides = getattr(context, "params", None)
    if not declared or not overrides:
        return {}
    return {name: overrides[name] for name in declared if name in overrides}


@dataclass(frozen=True)
class ExperimentPlan:
    """One resolved experiment request, ready for a compute backend.

    ``key`` is the disk-cache key the executing backend will probe and
    fill; it is fixed at build time so the request plane can observe
    (or dedup on) it without re-deriving the keying policy.
    """

    name: str
    cfg_hash: str
    key: str
    settings: "PerfSettings | None" = None
    experiment: "Experiment" = field(repr=False, compare=False, default=None)
    #: Row-identity fields for the sweep store: the resolved solver
    #: backend, a stable digest of the fault model ("none" for a
    #: perfect array) and the context seed.  Carried on the plan so
    #: the serve plane can spill results as typed rows without keeping
    #: the originating context around.
    solver: str = "batched"
    fault_set: str = "none"
    seed: int = 0

    @property
    def simulation(self) -> bool:
        return bool(self.experiment is not None and self.experiment.simulation)


def build_plan(
    name: str,
    context: "RunContext",
    settings: "PerfSettings | None" = None,
) -> ExperimentPlan:
    """Resolve ``name`` against the registry and key it for ``context``.

    Raises ``KeyError`` (with a did-you-mean hint) for an unknown
    experiment — request planes surface this as a client error without
    touching the compute plane.
    """
    experiment = get_experiment(name)
    cfg_hash = config_hash(context.config)
    params = _declared_params(experiment, context)
    key_parts = [
        "experiment",
        cfg_hash,
        name,
        settings if experiment.simulation else None,
        context.seed,
        context.faults,  # None for a perfect array (the historical key)
        context.solver,
    ]
    if params:
        # Appended only when set, so every pre-params cache key (and
        # every experiment that declares none) is byte-stable.
        key_parts.append(tuple(sorted(params.items())))
    key = cache_key(*key_parts)
    return ExperimentPlan(
        name=name,
        cfg_hash=cfg_hash,
        key=key,
        settings=settings if experiment.simulation else None,
        experiment=experiment,
        solver=context.solver,
        fault_set=(
            config_hash(context.faults)[:12]
            if context.faults is not None
            else "none"
        ),
        seed=context.seed,
    )


def execute_plan(plan: ExperimentPlan, context: "RunContext") -> ExperimentResult:
    """Run one plan to a typed artifact (cache -> drive -> validate -> store).

    This is the single compute-plane entry point: every backend —
    inline, thread pool, or a pool worker — ends up here, so caching
    and partial-result semantics cannot diverge between the batch CLI
    and the service.
    """
    experiment = plan.experiment or get_experiment(plan.name)
    start = time.perf_counter()
    payload = context.cache.load(plan.key)
    if payload is not MISSING:
        return ExperimentResult(
            name=plan.name,
            payload=payload,
            config_hash=plan.cfg_hash,
            wall_s=time.perf_counter() - start,
            executor=context.executor.label,
            cache="hit",
            seed=context.seed,
        )
    kwargs: dict = {"config": context.config, "context": context}
    if experiment.simulation and plan.settings is not None:
        kwargs["settings"] = plan.settings
    kwargs.update(_declared_params(experiment, context))
    context.drain_diagnostics()  # a fresh run starts with a clean slate
    with obs.span("experiment", name=plan.name):
        payload = experiment.driver(**kwargs)
    wall_s = time.perf_counter() - start
    experiment.validate_payload(payload)
    errors, retries = context.drain_diagnostics()
    if not errors:
        # Partial payloads are never cached: a transient worker failure
        # must not become a persistent hole in the figure.
        context.cache.store(plan.key, payload)
    return ExperimentResult(
        name=plan.name,
        payload=payload,
        config_hash=plan.cfg_hash,
        wall_s=wall_s,
        executor=context.executor.label,
        cache="miss" if context.cache.enabled else "off",
        seed=context.seed,
        errors=errors,
        retries=retries,
    )
