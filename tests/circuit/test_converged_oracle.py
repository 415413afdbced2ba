"""Converged-solution contract: every backend against independent oracles.

Two oracles, neither of which is a backend:

* **Converged Newton.**  Starting from a backend's answer, plain
  undamped Newton on the same KCL system is iterated until the largest
  node update falls below 1e-13 V.  A backend stops as soon as the
  residual norm dips under its 1e-10 A tolerance, which with megaohm
  half-selected cells can leave the node voltages up to a few 1e-7 V
  from the converged solution (``reference`` at 3.3 V: 2.4e-7 V).
* **Series I·R ladder.**  In the linear, low-current limit a driven
  line's node voltages have a closed form: the drive minus the line
  current times the resistance passed so far (with uniform taps, each
  segment carrying every downstream tap's current — the analytic line
  IR drop of Chen & Indiveri).

Every backend — the ``batched`` default and the ``reference`` oracle —
must land within :data:`CONTRACT_V` of the
converged solution on the golden drives, 3.3 V included, both from a
flat start and from the anchor seed the profile solver uses.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.circuit.crosspoint import BASELINE_BIAS
from repro.circuit.network import GROUND, Network
from repro.circuit.solvers import get_backend
from repro.circuit.solvers.structure import SolverStructure

from ..conftest import ALL_SOLVERS

#: The stated bound: every backend's node voltages lie within this of
#: the converged solution.  The worst measured gaps are at 3.3 V,
#: 2.4e-7 V from a flat start and 1.8e-7 V from the anchor seed; every
#: other golden drive lands within 1e-13 V.
CONTRACT_V = 5e-7

#: The oracle's own stopping rule: largest Newton update (V).
ORACLE_UPDATE_V = 1e-13

#: Golden drives of the lock and parity suites, 3.3 V included.
DRIVES = (2.8, 2.9, 3.0, 3.1, 3.2, 3.3, 3.4, 3.5, 3.6)

#: The profile solver's anchor: the nominal RESET voltage.
ANCHOR_V = 3.0


def _network(model, v, row=40, cols=(5, 37)):
    row, cols, drive = model._normalise(row, cols, v)
    return model._build_reset_network(row, cols, drive, BASELINE_BIAS).network


def _converged(network, start):
    """Undamped Newton from ``start`` until the update is below 1e-13 V."""
    structure = SolverStructure(network)
    state = structure.state
    drive = structure.drive(network)
    voltages = np.array(start, dtype=float)
    for _ in range(50):
        residual = state.residual(voltages, drive)
        update = spla.splu(structure.jacobian(voltages)).solve(-residual)
        voltages[state.free] += update
        if np.max(np.abs(update)) < ORACLE_UPDATE_V:
            return voltages
    raise AssertionError("the oracle itself did not converge")


@pytest.fixture(scope="module")
def golden():
    """Per drive: the converged solution and the anchor-drive seed."""
    from repro.circuit.line_model import ReducedArrayModel
    from repro.config import default_config

    model = ReducedArrayModel(default_config(size=64), solver="reference")
    reference = get_backend("reference")
    seed = reference.solve(_network(model, ANCHOR_V)).voltages
    cases = {}
    for v in DRIVES:
        network = _network(model, v)
        cases[v] = (network, _converged(network, reference.solve(network).voltages))
    return cases, seed


@pytest.mark.parametrize("solver", ALL_SOLVERS)
def test_flat_start_lands_within_bound(golden, solver):
    cases, _seed = golden
    backend = get_backend(solver)
    for v, (network, converged) in cases.items():
        got = backend.solve(network).voltages
        gap = float(np.max(np.abs(got - converged)))
        assert gap <= CONTRACT_V, f"{solver} at {v} V: {gap:.2e} V off"


@pytest.mark.parametrize("solver", ALL_SOLVERS)
def test_anchor_seeded_start_lands_within_bound(golden, solver):
    cases, seed = golden
    backend = get_backend(solver)
    for v, (network, converged) in cases.items():
        got = backend.solve(network, initial=seed).voltages
        gap = float(np.max(np.abs(got - converged)))
        assert gap <= CONTRACT_V, f"{solver} at {v} V: {gap:.2e} V off"


def test_oracle_gap_is_real_at_3v3(golden):
    """The bound is not vacuous: at 3.3 V the flat-start stopping
    point measurably differs from the converged solution."""
    cases, _seed = golden
    network, converged = cases[3.3]
    got = get_backend("reference").solve(network).voltages
    assert 1e-8 < float(np.max(np.abs(got - converged))) <= CONTRACT_V


@pytest.mark.parametrize("solver", ALL_SOLVERS)
@pytest.mark.parametrize("v_source", (0.5, 3.3))
def test_series_ladder_matches_closed_form(ladder_builder, solver, v_source):
    """Source -> r1 -> ... -> rn -> ground: V_k = V - I * (r1 + ... + rk)."""
    resistances = [2.5, 10.0, 40.0, 7.5, 100.0, 25.0]
    net, nodes = ladder_builder(resistances, v_source)
    current = v_source / (sum(resistances) + resistances[-1])
    want = v_source - current * np.cumsum(resistances)
    got = get_backend(solver).solve(net).voltages[nodes]
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    assert float(np.max(np.abs(got - want))) <= CONTRACT_V


@pytest.mark.parametrize("solver", ALL_SOLVERS)
def test_uniformly_tapped_line_matches_analytic_ir_drop(solver):
    """A driven line with a leak at every node.  When the leaks draw
    little current, each tap sinks ~V/R_leak, segment j carries every
    tap from j on, and the drop at node k is
    ``r_wire * I_tap * sum_{j<=k} (n - j + 1)``; the first correction is
    of relative order ``n^2 * r_wire / R_leak``."""
    n, r_wire, r_leak, v_drive = 32, 2.5, 2.5e5, 3.0
    net = Network()
    driver = net.add_node()
    net.fix_voltage(driver, v_drive)
    nodes = net.add_nodes(n)
    net.add_resistors([driver, *nodes[:-1]], nodes, r_wire)
    net.add_resistors(nodes, [GROUND] * n, r_leak)

    got = v_drive - get_backend(solver).solve(net).voltages[nodes]
    i_tap = v_drive / r_leak
    downstream = n - np.arange(n)  # taps fed through segment j
    want = r_wire * i_tap * np.cumsum(downstream)
    np.testing.assert_allclose(got, want, rtol=n**2 * r_wire / r_leak, atol=0.0)
