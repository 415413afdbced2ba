"""Nodal solver tests: hand-checkable circuits and solver behaviour."""

import numpy as np
import pytest

from repro.circuit.network import GROUND, Network
from repro.circuit.selector import OnStackModel


class TestLinearCircuits:
    def test_voltage_divider(self):
        net = Network()
        top, mid = net.add_nodes(2)
        net.fix_voltage(top, 2.0)
        net.add_resistor(top, mid, 100.0)
        net.add_resistor(mid, GROUND, 100.0)
        solution = net.solve()
        assert solution.voltage(mid) == pytest.approx(1.0, abs=1e-9)

    def test_unequal_divider(self):
        net = Network()
        top, mid = net.add_nodes(2)
        net.fix_voltage(top, 3.0)
        net.add_resistor(top, mid, 100.0)
        net.add_resistor(mid, GROUND, 200.0)
        solution = net.solve()
        assert solution.voltage(mid) == pytest.approx(2.0, abs=1e-9)

    def test_ladder_linear_profile(self):
        # A uniform resistor chain between two sources drops linearly.
        net = Network()
        nodes = net.add_nodes(5)
        source = net.add_node()
        net.fix_voltage(source, 1.0)
        chain = [source] + nodes
        for a, b in zip(chain, chain[1:]):
            net.add_resistor(a, b, 10.0)
        net.add_resistor(nodes[-1], GROUND, 10.0)
        solution = net.solve()
        profile = [solution.voltage(n) for n in nodes]
        diffs = np.diff([1.0] + profile + [0.0])
        assert np.allclose(diffs, diffs[0])

    def test_parallel_resistors(self):
        net = Network()
        mid = net.add_node()
        top = net.add_node()
        net.fix_voltage(top, 1.0)
        net.add_resistor(top, mid, 100.0)
        net.add_resistor(mid, GROUND, 300.0)
        net.add_resistor(mid, GROUND, 300.0)  # parallel -> 150 ohm
        solution = net.solve()
        assert solution.voltage(mid) == pytest.approx(0.6, abs=1e-9)


class TestNonlinearCircuits:
    def test_current_source_load_drop(self):
        # A saturating 90 uA load behind 1 kohm drops 90 mV.
        net = Network()
        node = net.add_node()
        source = net.add_node()
        net.fix_voltage(source, 3.0)
        net.add_resistor(source, node, 1000.0)
        net.add_device(node, GROUND, OnStackModel(i_on=90e-6))
        solution = net.solve()
        assert solution.voltage(node) == pytest.approx(3.0 - 0.09, abs=1e-3)

    def test_device_current_query(self):
        net = Network()
        node = net.add_node()
        source = net.add_node()
        net.fix_voltage(source, 3.0)
        net.add_resistor(source, node, 1000.0)
        handle = net.add_device(node, GROUND, OnStackModel(i_on=90e-6))
        solution = net.solve()
        assert net.device_current(solution, handle) == pytest.approx(
            90e-6, rel=1e-3
        )

    def test_kcl_residual_small(self):
        net = Network()
        node = net.add_node()
        source = net.add_node()
        net.fix_voltage(source, 2.0)
        net.add_resistor(source, node, 500.0)
        net.add_device(node, GROUND, OnStackModel(i_on=50e-6))
        solution = net.solve()
        assert solution.residual_norm < 1e-9


class TestValidation:
    def test_unknown_node_rejected(self):
        net = Network()
        net.add_node()
        with pytest.raises(ValueError):
            net.add_resistor(0, 5, 10.0)

    def test_nonpositive_resistance_rejected(self):
        net = Network()
        a, b = net.add_nodes(2)
        with pytest.raises(ValueError):
            net.add_resistor(a, b, 0.0)

    def test_cannot_pin_ground(self):
        net = Network()
        net.add_node()
        with pytest.raises(ValueError):
            net.fix_voltage(GROUND, 1.0)

    def test_no_free_nodes_rejected(self):
        net = Network()
        node = net.add_node()
        net.fix_voltage(node, 1.0)
        with pytest.raises(ValueError):
            net.solve()

    def test_initial_guess_length_checked(self):
        net = Network()
        a, b = net.add_nodes(2)
        net.fix_voltage(a, 1.0)
        net.add_resistor(a, b, 10.0)
        net.add_resistor(b, GROUND, 10.0)
        with pytest.raises(ValueError):
            net.solve(initial=np.zeros(5))

    def test_resistor_current_query(self):
        net = Network()
        a, b = net.add_nodes(2)
        net.fix_voltage(a, 1.0)
        net.add_resistor(a, b, 100.0)
        net.add_resistor(b, GROUND, 100.0)
        solution = net.solve()
        assert net.resistor_current(solution, 0) == pytest.approx(5e-3)


class TestBulkConstruction:
    """Bulk adds build exactly the element lists single adds do."""

    @staticmethod
    def _pair(bulk):
        net = Network()
        nodes = net.add_nodes(12)
        net.fix_voltage(nodes[0], 2.0)
        net.fix_voltage(nodes[7], 0.5)
        leak = OnStackModel(i_on=2e-6, v_sat=0.6)
        stack = OnStackModel(i_on=9e-5)
        n1, n2 = nodes[:-1], nodes[1:]
        halves = nodes[2:9]
        if bulk:
            net.add_resistors(np.asarray(n1), iter(n2), 50.0)
            handles = net.add_devices(halves, [GROUND] * len(halves), leak)
            handles.append(net.add_device(nodes[3], nodes[10], stack))
            handles += net.add_devices((n for n in nodes[9:]), nodes[:3], leak)
        else:
            for a, b in zip(n1, n2):
                net.add_resistor(a, b, 50.0)
            handles = [net.add_device(n, GROUND, leak) for n in halves]
            handles.append(net.add_device(nodes[3], nodes[10], stack))
            handles += [net.add_device(a, b, leak) for a, b in zip(nodes[9:], nodes[:3])]
        return net, handles

    def test_element_lists_byte_identical(self):
        bulk, bulk_handles = self._pair(bulk=True)
        single, single_handles = self._pair(bulk=False)
        for column in ("_res_n1", "_res_n2", "_res_g"):
            got, want = getattr(bulk, column).array(), getattr(single, column).array()
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        for got, want in zip(bulk._groups.values(), single._groups.values()):
            for g, w in zip(got.frozen()[1:], want.frozen()[1:]):
                assert g.tobytes() == w.tobytes()
        assert bulk_handles == single_handles == list(range(bulk.device_count))
        assert bulk.pattern_signature() == single.pattern_signature()
        solution = single.solve()
        for handle in single_handles:
            assert bulk.device_current(solution, handle) == single.device_current(
                solution, handle
            )

    def test_free_nodes_are_the_unpinned_ones_in_order(self):
        from repro.circuit.network import _SolverState

        net, _handles = self._pair(bulk=True)
        state = _SolverState(net)
        want = np.array(
            [i for i in range(net.node_count) if i not in net._fixed], dtype=np.intp
        )
        assert state.free.dtype == want.dtype
        assert state.free.tobytes() == want.tobytes()

    def test_unknown_device_handle_rejected(self):
        net, handles = self._pair(bulk=True)
        solution = net.solve()
        with pytest.raises(IndexError):
            net.device_current(solution, len(handles))
