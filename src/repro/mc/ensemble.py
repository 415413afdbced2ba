"""Vectorized Monte Carlo ensemble over array-instance variability.

Point estimates are the wrong output for RESET latency and endurance:
both are distributions driven by cell-level variation (Li et al.'s
stochastic-behaviors study; von Witzleben et al.'s intrinsic RESET
speed limit).  :func:`run_ensemble` stacks K array *instances* of one
configuration — each with independently seeded stuck cells, wire/LRS
spread, and sampled pump droop derived from a master
:class:`~repro.faults.model.FaultModel` via its chained-token
:meth:`~repro.faults.model.FaultModel.for_instance` scheme — and
reports p1/p50/p99 percentile bands instead of scalars.

The expensive part is the Newton solves behind each instance's BL drop
profile: instance droop shifts the applied voltage, so K instances
spread over many distinct voltage quanta.  All those profile networks
share one sparsity pattern, which is exactly the ``batched`` backend's
sweet spot — the whole ensemble's missing quanta go through
:meth:`~repro.xpoint.vmap.ArrayIRModel.ensemble_bl_profiles` as one
flat ``solve_ensemble`` batch, amortizing each factorisation across
every instance instead of paying it per instance (the per-instance
``reference`` path re-solves its own grid per instance;
``tests/mc/test_amortisation.py`` holds the solves per sample to
<= 1/5 of the solves per instance for K = 64).
The fault layering on top is the same analytic algebra as
:meth:`~repro.xpoint.vmap.ArrayIRModel.v_eff_map`, evaluated
per instance, so a K=1 ensemble is in 1e-9 V parity with the
single-instance path (locked by ``tests/mc/test_parity.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .. import obs
from ..circuit.crosspoint import BASELINE_BIAS, BiasScheme
from ..faults.model import FaultModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.context import RunContext

__all__ = [
    "EnsembleResult",
    "InstanceResult",
    "PercentileBand",
    "run_ensemble",
]


@dataclass(frozen=True)
class PercentileBand:
    """A p1/p50/p99 summary of one metric across ensemble instances.

    ``p1 <= p50 <= p99`` holds by construction (``numpy.percentile`` is
    monotone in the percentile argument); the statistics suite locks
    it.  For a lifetime metric the p1 edge reads as *lifetime at risk*:
    the endurance the 99th-percentile-unluckiest array still reaches.
    """

    p1: float
    p50: float
    p99: float

    @classmethod
    def from_samples(cls, values: "np.ndarray | list[float]") -> "PercentileBand":
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            raise ValueError("cannot band an empty sample set")
        finite = arr[np.isfinite(arr)]
        if finite.size == 0:
            # Every instance diverged (e.g. all latencies inf): the band
            # is degenerate at the shared non-finite value.
            return cls(float(arr[0]), float(arr[0]), float(arr[0]))
        if finite.size < arr.size:
            # Mixed finite/inf samples: percentiles over the raw array
            # would interpolate with inf and poison the median; rank
            # them instead by clamping non-finite samples to the finite
            # extreme they sit beyond.
            lo, hi = float(finite.min()), float(finite.max())
            arr = np.clip(np.nan_to_num(arr, posinf=hi, neginf=lo), lo, hi)
        p1, p50, p99 = np.percentile(arr, (1.0, 50.0, 99.0))
        return cls(float(p1), float(p50), float(p99))

    def as_dict(self) -> dict:
        return {"p1": self.p1, "p50": self.p50, "p99": self.p99}


@dataclass(frozen=True)
class InstanceResult:
    """Scalar margins of one sampled array instance.

    The metric definitions mirror the fault-sweep's ``_sweep_cell`` —
    worst finite latency over live cells, minimum endurance over live
    cells, fraction of live cells below the write-failure floor — so
    ensemble rows and sweep rows aggregate in the same units.
    """

    instance: int
    seed: int
    droop: float
    latency_us: float
    min_endurance: float
    fail_fraction: float
    stuck_fraction: float

    def as_dict(self) -> dict:
        return {
            "instance": self.instance,
            "seed": self.seed,
            "droop": self.droop,
            "latency_us": self.latency_us,
            "min_endurance": self.min_endurance,
            "fail_fraction": self.fail_fraction,
            "stuck_fraction": self.stuck_fraction,
        }


@dataclass(frozen=True)
class EnsembleResult:
    """One Monte Carlo ensemble's typed artifact."""

    config_hash: str
    solver: str
    samples: int
    master_seed: int
    quanta_solved: int
    latency_us: PercentileBand
    lifetime_at_risk: PercentileBand  # band over per-instance min endurance
    fail_fraction: PercentileBand
    instances: tuple[InstanceResult, ...]

    def as_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "solver": self.solver,
            "samples": self.samples,
            "master_seed": self.master_seed,
            "quanta_solved": self.quanta_solved,
            "latency_us": self.latency_us.as_dict(),
            "lifetime_at_risk": self.lifetime_at_risk.as_dict(),
            "fail_fraction": self.fail_fraction.as_dict(),
            "instances": [inst.as_dict() for inst in self.instances],
        }


def run_ensemble(
    context: "RunContext",
    samples: int,
    faults: "FaultModel | None" = None,
    v_applied: "float | None" = None,
    bias: BiasScheme = BASELINE_BIAS,
    chunk: int | None = None,
) -> EnsembleResult:
    """Solve a K-instance Monte Carlo ensemble of one configuration.

    ``faults`` is the *master* fault scenario (default: the context's,
    else a perfect array); instance ``i`` runs under
    ``faults.for_instance(i)``, so the whole ensemble derives from one
    master seed and is bit-reproducible.  Only the BL profiles at the
    instances' drooped voltage quanta hit the solver — everything
    above them is the analytic fault layer evaluated per instance with
    (A, A) temporaries, so memory stays flat in K.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    master = faults if faults is not None else (context.faults or FaultModel())
    config = context.config
    a = config.array.size
    if v_applied is None:
        v_applied = config.cell.v_reset
    model = context.nominal_ir_model()
    cell_model = model.cell_model
    v_fail = config.cell.v_write_fail

    with obs.span("mc.ensemble", array=a, samples=samples):
        droops = master.ensemble_droops(samples)
        v_inst = v_applied * (1.0 - droops)
        # Count quanta that genuinely hit the solver: the registry's
        # ``stores`` counter tracks locally computed artefacts only, so
        # promotions out of the disk store (which a registry-size delta
        # would miscount as solves) stay out of the number.
        before = _registry().stores
        profiles = model.ensemble_bl_profiles(v_inst, bias, chunk=chunk)
        quanta_solved = max(0, _registry().stores - before)
        wl_drop = np.asarray(model.wl_model.drop(np.arange(a), 1, bias))

        instances = []
        from ..xpoint.vmap import _VOLTAGE_QUANTUM

        for i in range(samples):
            fm = master.for_instance(i)
            sa0, sa1 = fm.stuck_masks(a)
            wl_factors, bl_factors = fm.line_factors(a)
            cell_factors = fm.cell_latency_factors(a)
            profile = profiles[int(round(float(v_inst[i]) / _VOLTAGE_QUANTUM))]
            v_eff = (
                v_inst[i]
                - profile[:, None] * bl_factors[None, :]
                - wl_drop[None, :] * wl_factors[:, None]
            )
            latency = np.asarray(cell_model.reset_latency(v_eff)) * cell_factors
            latency[sa0] = 0.0
            latency[sa1] = np.inf
            endurance = np.asarray(cell_model.endurance(latency))
            endurance[sa0 | sa1] = 0.0
            alive = ~(sa0 | sa1)
            finite = latency[alive & np.isfinite(latency)]
            instances.append(
                InstanceResult(
                    instance=i,
                    seed=fm.seed,
                    droop=float(droops[i]),
                    latency_us=(
                        float(finite.max() * 1e6) if finite.size else float("inf")
                    ),
                    min_endurance=(
                        float(endurance[alive].min()) if alive.any() else 0.0
                    ),
                    fail_fraction=float(np.mean(v_eff[alive] < v_fail)),
                    stuck_fraction=float(1.0 - alive.mean()),
                )
            )

    obs.count("mc.instances", samples)
    return EnsembleResult(
        config_hash=context.config_hash(),
        solver=context.solver,
        samples=samples,
        master_seed=master.seed,
        quanta_solved=quanta_solved,
        latency_us=PercentileBand.from_samples(
            [inst.latency_us for inst in instances]
        ),
        lifetime_at_risk=PercentileBand.from_samples(
            [inst.min_endurance for inst in instances]
        ),
        fail_fraction=PercentileBand.from_samples(
            [inst.fail_fraction for inst in instances]
        ),
        instances=tuple(instances),
    )


def _registry():
    from ..xpoint.vmap import profile_registry

    return profile_registry
