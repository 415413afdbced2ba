"""Reduce, then evaluate: every reduced evaluation is the full maps' bytes.

A column selection of ``v_eff_map`` is the full map's columns, the
latency tables are the full latency maps' group maxima, and the minimum
endurance is the full endurance map's finite minimum.  The last two
rest on Equation 1 being non-increasing in v_eff and Equation 2
non-decreasing in latency, in floating point; the property test below
checks that on sorted voltages, adjacent doubles included.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit.cell import CellModel
from repro.circuit.crosspoint import BASELINE_BIAS
from repro.config import SelectorParams, default_config
from repro.engine.context import RunContext
from repro.faults import FaultModel
from repro.mem.lifetime import LifetimeEstimator
from repro.techniques import Scheme, SchemeLatencyModel, make_drvr, make_udrvr_pr
from repro.techniques.base import StaticRegulator
from repro.xpoint.vmap import ArrayIRModel

from .full_maps import check_fig07b, check_schemes, full_map_min_endurance
from .test_map_gather import DSGB_BIAS


@pytest.fixture(scope="module")
def config():
    return default_config(size=64)


def drives(config):
    """Scalar, DRVR (one level per row) and UDRVR ((A, A)) applied voltages."""
    model = ArrayIRModel(config)
    return {
        "scalar": 3.3,
        "drvr": make_drvr(config, model=model).regulator.matrix(model)[:, 0],
        "udrvr": make_udrvr_pr(config, model=model).regulator.matrix(model),
    }


@pytest.mark.parametrize("rate", [None, 0.001, 0.005], ids=["fault-free", "0.001", "0.005"])
def test_column_selection_is_the_full_maps_columns(config, rate):
    faults = None if rate is None else FaultModel.at_rate(rate, seed=5)
    model = ArrayIRModel(config, faults=faults)
    a = config.array.size
    for name, v in drives(config).items():
        for n_bits, bias in ((1, BASELINE_BIAS), (4, DSGB_BIAS)):
            full = model.v_eff_map(v, n_bits, bias)
            for columns in ([0], [a - 1, 5, 0, 5], range(a)):
                got = model.v_eff_map(v, n_bits, bias, columns=columns)
                np.testing.assert_array_equal(
                    got, full[:, list(columns)], err_msg=f"{name} {columns}"
                )


@pytest.mark.parametrize("rate", [None, 0.005], ids=["fault-free", "0.005"])
def test_fig07b_reads_column_zero(config, rate):
    faults = None if rate is None else FaultModel.at_rate(rate, seed=5)
    check_fig07b(config, faults)


def test_every_scheme_at_256():
    assert check_schemes(default_config(size=256)) == 0


def test_every_scheme_at_kr_500():
    """Fig. 20's Kr = 500 point, where Base falls below the write floor."""
    config = default_config().with_array(selector=SelectorParams(kr=500.0))
    assert check_schemes(config) > 0


def test_min_endurance_error_path(config):
    scheme = Scheme("too-low", regulator=StaticRegulator(1.0))
    context = RunContext(config=config)
    with pytest.raises(ValueError, match="cannot write any cell"):
        LifetimeEstimator(config, context=context).min_endurance(scheme)
    with pytest.raises(ValueError, match="cannot write any cell"):
        full_map_min_endurance(SchemeLatencyModel(config, scheme, context=context))


def _adjacent_doubles(anchor: float, count: int) -> np.ndarray:
    """``count`` consecutive doubles on each side of ``anchor``."""
    bits = np.array([anchor]).view(np.int64)[0]
    return np.arange(bits - count, bits + count, dtype=np.int64).view(np.float64)


def test_equations_are_monotone_in_floating_point():
    cell = CellModel.from_params(default_config().cell)
    floor = cell.params.v_write_fail
    rng = np.random.default_rng(2)
    voltages = np.sort(
        np.concatenate(
            [
                rng.uniform(1.0, 4.5, 1_000_000),
                *(
                    _adjacent_doubles(anchor, 50_000)
                    for anchor in (floor, 2.3, 3.0, 3.7)
                ),
            ]
        )
    )
    assert voltages.size >= 1_400_000
    latency = cell.reset_latency(voltages)
    assert np.isinf(latency[voltages < floor]).all()
    assert np.isfinite(latency[voltages >= floor]).all()
    # Equation 1: non-increasing in v_eff (inf <= inf below the floor).
    assert (latency[1:] <= latency[:-1]).all()
    # Equation 2: non-decreasing in latency, over the latencies above and
    # adjacent doubles of the slowest and fastest finite latency.
    finite = latency[np.isfinite(latency)][::-1]
    finite = np.sort(
        np.concatenate(
            [finite, *(_adjacent_doubles(t, 50_000) for t in (finite[0], finite[-1]))]
        )
    )
    endurance = cell.endurance(finite)
    assert (endurance[1:] >= endurance[:-1]).all()
