"""Full-map oracles of the reduced evaluations.

The latency tables, the minimum endurance and Fig. 7b read reductions
of the IR-drop maps: a (row, group) maximum, a finite minimum, one bit
line.  The library reduces the voltages first and evaluates Equations 1
and 2 on what is left.  These oracles build every cell's map, evaluate
every cell, then reduce, as the maps did before; the reduced results
must be the same bytes.

``check_schemes`` and ``check_fig07b`` also run at the paper's full
512x512 size, outside tier-1 (see the CI step "Reduced evaluation
equals the full maps at full size").
"""

from __future__ import annotations

import numpy as np

from repro.analysis.experiments import fig07b
from repro.config import SystemConfig
from repro.engine.context import RunContext
from repro.faults import FaultModel
from repro.mem.lifetime import LifetimeEstimator
from repro.techniques import Scheme, SchemeLatencyModel, make_drvr
from repro.techniques.base import WRITE_RETRY_LATENCY
from repro.techniques.stacks import standard_schemes


def full_map_table(latency_model: SchemeLatencyModel) -> np.ndarray:
    """Eq. 1 on every cell of each N-bit map, then each group's slowest
    cell, capped at the retry latency."""
    model = latency_model.ir_model
    scheme = latency_model.scheme
    a = latency_model.config.array.size
    width = latency_model.config.array.data_width
    v_matrix = scheme.regulator.matrix(model)
    tables = []
    for n_bits in range(1, width + 1):
        latency = model.latency_map(v_matrix, n_bits, scheme.bias)
        per_group = latency.reshape(a, width, a // width).max(axis=2)
        tables.append(np.minimum(per_group, WRITE_RETRY_LATENCY))
    return np.stack(tables)


def full_map_min_endurance(latency_model: SchemeLatencyModel) -> float:
    """The finite minimum of the scheme's 1-bit endurance map."""
    model = latency_model.ir_model
    scheme = latency_model.scheme
    v_matrix = scheme.regulator.matrix(model)
    endurance = model.endurance_map(v_matrix, n_bits=1, bias=scheme.bias)
    finite = endurance[np.isfinite(endurance)]
    if finite.size == 0:
        raise ValueError(f"scheme {scheme.name} cannot write any cell")
    return float(finite.min())


def full_map_fig07b(
    config: SystemConfig, context: RunContext
) -> tuple[np.ndarray, np.ndarray]:
    """Fig. 7b's (static, DRVR) profiles: column 0 of the full maps."""
    model = context.ir_model(config)
    static = model.v_eff_map(config.cell.v_reset)[:, 0]
    drvr = make_drvr(config, model=context.nominal_ir_model(config))
    regulated = model.v_eff_map(drvr.regulator.matrix(model))[:, 0]
    return static, regulated


def check_scheme(config: SystemConfig, scheme: Scheme, context: RunContext) -> int:
    """One scheme's table and minimum endurance equal the full maps';
    how many table entries are capped (write-failing operating points)."""
    latency_model = SchemeLatencyModel(config, scheme, context=context)
    np.testing.assert_array_equal(
        latency_model.table, full_map_table(latency_model), err_msg=scheme.name
    )
    got = LifetimeEstimator(config, context=context).min_endurance(scheme)
    assert got == full_map_min_endurance(latency_model), scheme.name
    return int((latency_model.table == WRITE_RETRY_LATENCY).sum())


def check_schemes(config: SystemConfig) -> int:
    """:func:`check_scheme` over every standard scheme; the capped total."""
    context = RunContext(config=config)
    schemes = standard_schemes(config, context=context)
    return sum(check_scheme(config, s, context) for s in schemes.values())


def check_fig07b(config: SystemConfig, faults: FaultModel | None) -> None:
    """Fig. 7b's profiles are column 0 of the full maps, faulted or not."""
    context = RunContext(config=config, faults=faults)
    payload = fig07b(config, context=context)
    static, regulated = full_map_fig07b(config, context)
    np.testing.assert_array_equal(payload["static_profile"], static)
    np.testing.assert_array_equal(payload["drvr_profile"], regulated)
