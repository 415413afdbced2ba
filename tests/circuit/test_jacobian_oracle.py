"""Bit-exactness of the cached Jacobian template against scipy's COO sum.

:meth:`SolverStructure.jacobian` must return the very arrays the seed
solver's per-iteration assembly produced — ``linear + coo(stamps).tocsc()``
— down to the order scipy sums duplicate stamps in and the entries its
sparse sum drops because they cancel to exactly zero.  The seed
assembly lives on here as the oracle.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.circuit.network import GROUND, Network, _SolverState
from repro.circuit.selector import OnStackModel, SelectorModel
from repro.circuit.solvers.structure import SolverStructure


def coo_jacobian(state: _SolverState, voltages: np.ndarray) -> sp.csc_matrix:
    """The seed solver's Jacobian: linear matrix + COO device stamps."""
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    for (model, _n1, _n2, f1, f2), v in zip(
        state._dev_maps, state.device_voltages(voltages)
    ):
        g = np.asarray(model.conductance(v))
        for a, b, sign in ((f1, f1, 1.0), (f2, f2, 1.0), (f1, f2, -1.0), (f2, f1, -1.0)):
            keep = (a >= 0) & (b >= 0)
            rows.append(a[keep])
            cols.append(b[keep])
            vals.append(sign * g[keep])
    if not rows:
        return state._linear
    stamp = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=state._linear.shape,
    ).tocsc()
    return state._linear + stamp


class LinearDevice:
    """A device of constant (possibly negative) differential conductance."""

    def __init__(self, g: float) -> None:
        self.g = g

    def current(self, v):
        return self.g * np.asarray(v, dtype=float)

    def conductance(self, v):
        return np.full(np.shape(v), self.g)

    def __repr__(self) -> str:
        return f"LinearDevice({self.g!r})"


def assert_bit_identical(network: Network, voltages: np.ndarray) -> sp.csc_matrix:
    structure = SolverStructure(network)
    got = structure.jacobian(voltages)
    want = coo_jacobian(structure.state, voltages)
    for name in ("indptr", "indices", "data"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype, name
        assert g.tobytes() == w.tobytes(), name
    return got


def _random_network(seed: int) -> tuple[Network, np.ndarray]:
    """A random netlist that mixes every stamp shape, plus an iterate."""
    rng = np.random.default_rng(seed)
    net = Network()
    n = int(rng.integers(4, 40))
    nodes = net.add_nodes(n)
    for node in rng.choice(n, size=int(rng.integers(1, 4)), replace=False):
        net.fix_voltage(int(node), float(rng.uniform(-1.0, 3.0)))
    endpoints = np.asarray(nodes + [GROUND])

    def pair():
        a, b = rng.choice(endpoints, size=2, replace=False)
        return int(a), int(b)

    for _ in range(int(rng.integers(n, 3 * n))):
        net.add_resistor(*pair(), float(rng.uniform(10.0, 1e4)))
    models = [
        OnStackModel(i_on=float(rng.uniform(1e-6, 1e-4)), v_sat=float(rng.uniform(0.1, 1.0))),
        SelectorModel(i0=1e-9, b=float(rng.uniform(2.0, 6.0)), v_full=3.0, i_on=9e-5),
        LinearDevice(float(rng.uniform(-1e-3, 1e-3))),
    ]
    for _ in range(int(rng.integers(n, 3 * n))):
        a, b = pair()
        model = models[int(rng.integers(len(models)))]
        # Parallel copies stamp 2- and 3-way duplicates on one slot.
        for _copy in range(int(rng.choice([1, 1, 2, 3]))):
            net.add_device(a, b, model)
    if rng.random() < 0.5:
        # A hub with > 16 entries in its column exercises scipy's
        # unstable in-column sort on equal row indices.
        hub = int(rng.integers(n))
        others = rng.choice(endpoints, size=24)
        net.add_devices([hub] * others.size, others.tolist(), models[0])
    voltages = rng.uniform(-3.0, 3.0, size=net.node_count)
    for node, value in net._fixed.items():
        voltages[node] = value
    return net, voltages


@pytest.mark.parametrize("seed", range(60))
def test_random_networks_match_coo_oracle(seed):
    net, voltages = _random_network(seed)
    assert_bit_identical(net, voltages)


def test_devices_to_fixed_nodes_and_ground():
    net = Network()
    src, a, b = net.add_nodes(3)
    net.fix_voltage(src, 2.0)
    net.add_resistor(src, a, 100.0)
    net.add_resistor(a, b, 50.0)
    stack = OnStackModel(i_on=1e-4)
    net.add_device(src, a, stack)  # fixed -> free
    net.add_device(b, GROUND, stack)  # free -> ground
    net.add_device(GROUND, a, stack)  # ground -> free
    assert_bit_identical(net, np.array([2.0, 1.3, 0.4]))


def test_device_between_free_nodes_without_parallel_resistor():
    net = Network()
    src, a, b = net.add_nodes(3)
    net.fix_voltage(src, 2.0)
    net.add_resistor(src, a, 100.0)
    net.add_resistor(b, GROUND, 100.0)
    net.add_device(a, b, OnStackModel(i_on=1e-4))
    jac = assert_bit_identical(net, np.array([2.0, 1.1, 0.3]))
    assert jac.nnz == 4  # both off-diagonal device entries kept


@pytest.mark.parametrize("copies", [2, 3])
def test_duplicate_stamps_on_one_node(copies):
    net = Network()
    src, a, b = net.add_nodes(3)
    net.fix_voltage(src, 2.5)
    net.add_resistor(src, a, 100.0)
    net.add_resistor(a, b, 70.0)
    net.add_resistor(b, GROUND, 30.0)
    models = [OnStackModel(i_on=1e-4 * (k + 1), v_sat=0.3 + 0.1 * k) for k in range(copies)]
    for model in models:
        net.add_device(a, b, model)
        net.add_device(a, GROUND, model)
    assert_bit_identical(net, np.array([2.5, 1.7, 0.9]))


def test_entries_summing_to_exactly_zero_are_dropped():
    net = Network()
    src, a, b, c = net.add_nodes(4)
    net.fix_voltage(src, 2.0)
    net.add_resistor(src, a, 100.0)
    net.add_resistor(b, GROUND, 100.0)
    net.add_resistor(c, GROUND, 100.0)
    # Off-diagonal (a, b): resistor -0.5 plus a device stamping +0.5.
    net.add_resistor(a, b, 2.0)
    net.add_device(a, b, LinearDevice(-0.5))
    # Off-diagonal (a, c): a saturated device's conductance is exactly 0.
    net.add_device(a, c, OnStackModel(i_on=1e-4, v_sat=0.01))
    voltages = np.array([2.0, 1.5, 0.7, -1.0])
    jac = assert_bit_identical(net, voltages)
    dense = jac.toarray()
    assert dense[0, 1] == dense[1, 0] == 0.0
    assert dense[0, 2] == dense[2, 0] == 0.0
    assert jac.nnz == 3  # the diagonal only


def test_network_without_devices_returns_linear_matrix():
    net = Network()
    src, a = net.add_nodes(2)
    net.fix_voltage(src, 1.0)
    net.add_resistor(src, a, 10.0)
    net.add_resistor(a, GROUND, 10.0)
    assert_bit_identical(net, np.array([1.0, 0.5]))
