"""Full-array maps read each cell's BL drop through one gather.

``v_eff_map`` gathers every cell's BL drop from a table of the profiles
present, ``v_eff_maps`` shares that gather across N-bit maps (the
``SchemeLatencyModel`` tables read eight), and ``cell_maps`` across a
drive's three maps.  All must give the bytes of the per-quantum masked
loop the maps used before, which the oracles below keep.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit.crosspoint import BASELINE_BIAS, BiasScheme
from repro.config import default_config
from repro.faults import FaultModel
from repro.techniques import (
    SchemeLatencyModel,
    make_baseline,
    make_dbl,
    make_dsgb,
    make_udrvr_pr,
)
from repro.techniques.base import WRITE_RETRY_LATENCY, MatrixRegulator
from repro.xpoint.vmap import ArrayIRModel

from ..cpu.scalar_latency import write_latency

QUANTUM = 0.02
DSGB_BIAS = BiasScheme(name="dsgb", wl_ground_both_ends=True)


def masked_v_eff_map(model, v_applied, n_bits, bias):
    """The v_eff map built one voltage quantum at a time, with masks."""
    a = model.config.array.size
    v = model.applied_matrix(v_applied)
    if model.faults is not None:
        v = np.asarray(model.faults.applied_voltage(v))
    bl_drop = np.empty_like(v)
    quanta = np.rint(v / QUANTUM)
    for q in np.unique(quanta):
        profile = model.bl_drop_profile(float(q) * QUANTUM, bias)
        mask = quanta == q
        bl_drop[mask] = np.repeat(profile[:, None], a, axis=1)[mask]
    wl_drop = np.asarray(model.wl_model.drop(np.arange(a), n_bits, bias))
    if model.faults is None:
        return v - bl_drop - wl_drop[None, :]
    wl_factors, bl_factors = model._wire_factors()
    return v - bl_drop * bl_factors[None, :] - wl_drop[None, :] * wl_factors[:, None]


def masked_latency_map(model, v_applied, n_bits, bias):
    """The latency map of :func:`masked_v_eff_map`."""
    v_eff = masked_v_eff_map(model, v_applied, n_bits, bias)
    latency = np.asarray(model.cell_model.reset_latency(v_eff))
    if model.faults is not None:
        a = model.config.array.size
        sa0, sa1 = model.faults.stuck_masks(a)
        latency = latency * model.faults.cell_latency_factors(a)
        latency[sa0] = 0.0
        latency[sa1] = np.inf
    return latency


@pytest.fixture(scope="module")
def config():
    return default_config(size=64)


def drives(model):
    """Scalar, per-row and (A, A) drives.  The per-row and UDRVR drives
    span more than 30 quanta; the bimodal one leaves most of its span
    empty."""
    a = model.config.array.size
    row_levels = tuple(np.linspace(2.9, 3.46, 8))
    col_deltas = tuple(-0.02 * np.arange(8))
    udrvr = MatrixRegulator(row_levels, col_deltas).matrix(model)
    bimodal = np.where(np.arange(a)[:, None] % 3 == 0, 2.1, 3.3) + np.zeros((a, a))
    return {
        "scalar": 3.3,
        "per-row": np.linspace(2.8, 3.5, a),
        "udrvr": udrvr,
        "bimodal": bimodal,
    }


@pytest.mark.parametrize("faulted", [False, True], ids=["fault-free", "faulted"])
def test_v_eff_map_is_the_masked_loop(config, faulted):
    faults = FaultModel.at_rate(1e-2, seed=7) if faulted else None
    model = ArrayIRModel(config, faults=faults)
    cases = drives(model)
    udrvr_quanta = np.unique(np.rint(model.applied_matrix(cases["udrvr"]) / QUANTUM))
    assert udrvr_quanta.size >= 30
    per_row_quanta = np.unique(np.rint(cases["per-row"] / QUANTUM))
    assert per_row_quanta.size >= 30
    for name, v in cases.items():
        for n_bits, bias in ((1, BASELINE_BIAS), (4, DSGB_BIAS)):
            got = model.v_eff_map(v, n_bits, bias)
            want = masked_v_eff_map(model, v, n_bits, bias)
            np.testing.assert_array_equal(got, want, err_msg=name)


def test_non_finite_drive_is_rejected(config):
    model = ArrayIRModel(config)
    v = np.full((64, 64), 3.0)
    v[5, 7] = np.nan
    with pytest.raises(ValueError, match="finite"):
        model.v_eff_map(v)


@pytest.mark.parametrize("faulted", [False, True], ids=["fault-free", "faulted"])
def test_latency_maps_are_separate_maps(config, faulted):
    faults = FaultModel.at_rate(1e-2, seed=7) if faulted else None
    model = ArrayIRModel(config, faults=faults)
    v = drives(model)["udrvr"]
    maps = list(model.v_eff_maps(v, (1, 3, 8), DSGB_BIAS))
    assert len(maps) == 3
    for n_bits, got in zip((1, 3, 8), maps):
        np.testing.assert_array_equal(
            got, masked_v_eff_map(model, v, n_bits, DSGB_BIAS)
        )
        want = masked_latency_map(model, v, n_bits, DSGB_BIAS)
        np.testing.assert_array_equal(model.latency_map(v, n_bits, DSGB_BIAS), want)


@pytest.mark.parametrize("faulted", [False, True], ids=["fault-free", "faulted"])
def test_cell_maps_are_the_oracle_maps(config, faulted):
    """One gather and one fault draw give all three maps of a drive."""
    faults = FaultModel.at_rate(1e-2, seed=7) if faulted else None
    model = ArrayIRModel(config, faults=faults)
    v = drives(model)["udrvr"]
    v_eff, latency, endurance = model.cell_maps(v, 4, DSGB_BIAS)
    want = masked_latency_map(model, v, 4, DSGB_BIAS)
    np.testing.assert_array_equal(v_eff, masked_v_eff_map(model, v, 4, DSGB_BIAS))
    np.testing.assert_array_equal(latency, want)
    want = np.asarray(model.cell_model.endurance(want))
    if faulted:
        sa0, sa1 = faults.stuck_masks(config.array.size)
        assert (sa0 | sa1).any()
        want[sa0 | sa1] = 0.0
    np.testing.assert_array_equal(endurance, want)
    np.testing.assert_array_equal(model.endurance_map(v, 4, DSGB_BIAS), want)


@pytest.mark.parametrize(
    "make", [make_baseline, make_dsgb, make_udrvr_pr], ids=["Base", "DSGB", "UDRVR+PR"]
)
def test_latency_table_is_eight_separate_maps(config, make):
    scheme = make(config)
    latency_model = SchemeLatencyModel(config, scheme)
    model = latency_model.ir_model
    a = config.array.size
    width = config.array.data_width
    v_matrix = scheme.regulator.matrix(model)
    for n_bits in range(1, width + 1):
        latency = masked_latency_map(model, v_matrix, n_bits, scheme.bias)
        per_group = latency.reshape(a, width, a // width).max(axis=2)
        want = np.minimum(per_group, WRITE_RETRY_LATENCY)
        np.testing.assert_array_equal(latency_model.table[n_bits - 1], want)


@pytest.mark.parametrize(
    "make",
    [make_baseline, make_dbl, make_udrvr_pr],
    ids=["Base", "D-BL", "UDRVR+PR"],
)
def test_worst_case_write_latency_is_the_row_loop(config, make):
    """One table read per plan equals the per-row write_latency loop."""
    latency_model = SchemeLatencyModel(config, make(config))
    width = config.array.data_width
    want = 0.0
    for pattern in range(1, 1 << width):
        reset_bits = np.array([(pattern >> i) & 1 for i in range(width)], dtype=bool)
        plan = latency_model.scheme.partitioner.plan(reset_bits, ~reset_bits)
        for row in latency_model._worst_rows():
            want = max(want, write_latency(latency_model, int(row), plan))
    assert latency_model.worst_case_write_latency() == want

