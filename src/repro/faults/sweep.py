"""The ``fault-sweep`` experiment: scheme margins on imperfect arrays.

The paper's techniques (DRVR, PR, UDRVR) are calibrated against a
*healthy* array; this sweep asks how their latency and endurance
margins hold up when the device misbehaves.  For each fault rate a
composite :class:`~repro.faults.model.FaultModel` (stuck cells, pump
droop, wire and LRS spread — :meth:`FaultModel.at_rate`) is injected
into the IR-drop maps while every regulator keeps the levels it
designed for the perfect array — exactly the mismatch a deployed chip
would see.  Cells fan out through the run context's executor, so the
sweep both *measures* device robustness and *exercises* the engine's
partial-result machinery.

Reported per (scheme, rate): the array RESET latency over live cells,
the minimum endurance over live cells, the fraction of live cells
pushed below the write-failure floor, and the stuck-cell fraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import SystemConfig, default_config
from ..engine.context import RunContext
from ..engine.registry import experiment
from ..xpoint.vmap import ArrayIRModel, get_ir_model
from .model import FaultModel

__all__ = ["fault_sweep", "DEFAULT_RATES", "DEFAULT_SCHEMES"]

#: Stuck-cell fractions the sweep steps through (droop/spread scale along).
DEFAULT_RATES = (0.0, 1e-4, 1e-3, 1e-2)

#: Schemes whose margins are tracked (paper's progression, Fig. 4 -> 13).
DEFAULT_SCHEMES = ("Base", "DRVR", "DRVR+PR", "UDRVR+PR")


@dataclass(frozen=True)
class _SweepCell:
    """One executor task: margins of one scheme under one fault model."""

    config: SystemConfig
    faults: FaultModel
    scheme: str
    rate: float


def _sweep_cell(cell: _SweepCell) -> dict:
    """Evaluate one margin cell (top-level so it pickles to workers)."""
    from ..techniques.stacks import standard_schemes

    scheme = standard_schemes(cell.config)[cell.scheme]
    # Regulators keep the levels designed against the healthy array; the
    # nominal model also supplies the multi-bit optimum for PR schemes.
    nominal = get_ir_model(cell.config)
    n_bits = nominal.wl_model.optimal_bits() if scheme.reset_before_set else 1
    model = ArrayIRModel(cell.config, faults=cell.faults)
    v_matrix = scheme.regulator.matrix(nominal)
    v_eff, latency, endurance = model.cell_maps(
        v_matrix, n_bits=n_bits, bias=scheme.bias
    )
    if model.faults is not None:
        sa0, sa1 = model.faults.stuck_masks(cell.config.array.size)
        alive = ~(sa0 | sa1)
    else:
        alive = np.ones(latency.shape, dtype=bool)
    finite = latency[alive & np.isfinite(latency)]
    return {
        "stuck_fraction": float(1.0 - alive.mean()),
        "latency_us": float(finite.max() * 1e6) if finite.size else float("inf"),
        "min_endurance": float(endurance[alive].min()) if alive.any() else 0.0,
        "fail_fraction": float(
            np.mean(v_eff[alive] < cell.config.cell.v_write_fail)
        ),
    }


@experiment(name="fault-sweep", output_keys=("rates", "schemes", "margins"))
def fault_sweep(
    config: SystemConfig | None = None,
    context: RunContext | None = None,
    rates: tuple[float, ...] = DEFAULT_RATES,
    schemes: tuple[str, ...] = DEFAULT_SCHEMES,
) -> dict:
    """Fault sweep: DRVR/PR/UDRVR margins as device fault rates rise."""
    if context is None:
        context = RunContext(config=config or default_config())
    config = config or context.config
    # One seed for the whole sweep: fault sets are nested as the rate
    # grows (same uniform draw, higher threshold), so margins degrade
    # monotonically instead of jumping between unrelated fault sets.
    seed = context.seed_for(41, "fault-sweep")
    cells = [
        _SweepCell(config, FaultModel.at_rate(rate, seed=seed), name, rate)
        for rate in rates
        for name in schemes
    ]
    margins: dict[str, dict] = {}
    for cell, result in zip(cells, context.executor.map(_sweep_cell, cells)):
        if result.error is not None:
            context.note_task_error(result.error)
            continue
        context.note_retries(result.attempts - 1)
        margins[f"{cell.scheme} @ {cell.rate:g}"] = result.value
    return {
        "rates": list(rates),
        "schemes": list(schemes),
        "margins": margins,
    }
