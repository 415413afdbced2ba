"""Property-based and metamorphic tests on the IR-drop solvers.

The linear/monotonicity properties run through ``Network.solve``
directly; the array-level invariants are parameterised over every
registered solver backend, so a physics violation in an accelerated
path cannot hide behind the parity tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.crosspoint import BiasScheme
from repro.circuit.network import GROUND, Network

from ..conftest import ALL_SOLVERS


class TestLinearSolverProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        resistances=st.lists(
            st.floats(min_value=1.0, max_value=1e4), min_size=1, max_size=8
        ),
        v_source=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_series_ladder_is_monotone_divider(self, resistances, v_source):
        net = Network()
        source = net.add_node()
        net.fix_voltage(source, v_source)
        previous = source
        nodes = []
        for r in resistances:
            node = net.add_node()
            net.add_resistor(previous, node, r)
            nodes.append(node)
            previous = node
        net.add_resistor(previous, GROUND, resistances[-1])
        solution = net.solve()
        profile = [v_source] + [solution.voltage(n) for n in nodes] + [0.0]
        diffs = np.diff(profile)
        assert np.all(diffs <= 1e-9)  # voltage only falls towards ground

    @settings(max_examples=20, deadline=None)
    @given(
        resistances=st.lists(
            st.floats(min_value=1.0, max_value=1e4), min_size=2, max_size=6
        ),
        scale=st.floats(min_value=0.5, max_value=3.0),
    )
    def test_linearity_in_source_voltage(self, resistances, scale):
        # Pure resistor networks are linear: scaling the source scales
        # every node voltage identically.
        def build(v_source):
            net = Network()
            source = net.add_node()
            net.fix_voltage(source, v_source)
            previous = source
            nodes = []
            for r in resistances:
                node = net.add_node()
                net.add_resistor(previous, node, r)
                nodes.append(node)
                previous = node
            net.add_resistor(previous, GROUND, resistances[-1])
            return net, nodes

        net1, nodes1 = build(1.0)
        net2, nodes2 = build(scale)
        s1 = net1.solve()
        s2 = net2.solve()
        for n1, n2 in zip(nodes1, nodes2):
            assert s2.voltage(n2) == pytest.approx(
                scale * s1.voltage(n1), rel=1e-6, abs=1e-9
            )

    @pytest.mark.parametrize("solver", ALL_SOLVERS)
    def test_node_relabeling_invariance(self, solver, ladder_builder):
        """Metamorphic: a ladder built ground-up is physically the same
        network as one built source-down — node creation order must not
        change any solved potential."""
        resistances = [120.0, 35.0, 900.0, 60.0, 410.0]
        net_fwd, nodes_fwd = ladder_builder(resistances, 2.7)

        net_rev = Network()
        nodes_rev = list(reversed(net_rev.add_nodes(len(resistances))))
        source = net_rev.add_node()
        net_rev.fix_voltage(source, 2.7)
        previous = source
        for node, r in zip(nodes_rev, resistances):
            net_rev.add_resistor(previous, node, r)
            previous = node
        net_rev.add_resistor(previous, GROUND, resistances[-1])

        s_fwd = net_fwd.solve(backend=solver)
        s_rev = net_rev.solve(backend=solver)
        for n_f, n_r in zip(nodes_fwd, nodes_rev):
            assert s_rev.voltage(n_r) == pytest.approx(
                s_fwd.voltage(n_f), abs=1e-9
            )


class TestBackendInvariants:
    """Physics invariants every solver backend must preserve."""

    @pytest.mark.parametrize("solver", ALL_SOLVERS)
    def test_v_eff_non_increasing_with_bl_distance(
        self, solver, reduced_model_builder
    ):
        """The further up the bit line (away from the write driver) the
        selected row sits, the more wire the RESET current crosses:
        v_eff must never increase with BL distance."""
        model = reduced_model_builder(32, solver)
        a = model.config.array.size
        v_eff = [
            model.solve_reset(row, (0,)).v_eff[(row, 0)] for row in range(a)
        ]
        diffs = np.diff(v_eff)
        assert np.all(diffs <= 1e-12)

    @pytest.mark.parametrize("solver", ALL_SOLVERS)
    def test_drop_worsens_past_pr_sweet_spot(self, solver, mini_config):
        """Fig. 11a: past the optimal concurrent-RESET count, every
        extra bit adds more companion-current drop than its per-bit
        share saves — the far-column WL drop worsens monotonically."""
        from repro.xpoint.vmap import ArrayIRModel

        model = ArrayIRModel(mini_config, solver=solver)
        a = mini_config.array.size
        wl = model.wl_model
        n_star = wl.optimal_bits()
        drops = [
            float(wl.drop(a - 1, n))
            for n in range(n_star, mini_config.array.data_width + 1)
        ]
        assert np.all(np.diff(drops) >= -1e-12)
        # And the sweet spot is a genuine optimum over the whole range.
        all_drops = [
            float(wl.drop(a - 1, n))
            for n in range(1, mini_config.array.data_width + 1)
        ]
        assert min(all_drops) == pytest.approx(drops[0])

    @pytest.mark.parametrize("solver", ALL_SOLVERS)
    def test_wl_bl_mirror_symmetry(self, solver, reduced_model_builder):
        """Metamorphic relabeling invariance at the array level: with the
        word line grounded at both ends, columns ``c`` and ``A-1-c`` are
        mirror images, so a single-bit RESET sees the same v_eff."""
        model = reduced_model_builder(32, solver)
        a = model.config.array.size
        bias = BiasScheme(name="dsgb", wl_ground_both_ends=True)
        row = a // 2
        for c in (1, a // 4, a // 2 - 1):
            left = model.solve_reset(row, (c,), bias=bias)
            right = model.solve_reset(row, (a - 1 - c,), bias=bias)
            assert left.v_eff[(row, c)] == pytest.approx(
                right.v_eff[(row, a - 1 - c)], abs=1e-9
            )

    @pytest.mark.parametrize("solver", ALL_SOLVERS)
    def test_kcl_residual_below_tolerance(self, solver, reduced_model_builder):
        """Every backend's solution must satisfy KCL: the residual
        recomputed from the raw network stays below the convergence
        tolerance (times the near-converged acceptance factor)."""
        from repro.circuit.crosspoint import BASELINE_BIAS
        from repro.circuit.network import _SolverState

        model = reduced_model_builder(32, solver)
        a = model.config.array.size
        row, cols, drive = model._normalise(a - 1, (a - 1,), None)
        net, _wl, _bl = model._build_reset_network(row, cols, drive, BASELINE_BIAS)
        solution = net.solve(backend=solver)
        state = _SolverState(net)
        residual = state.residual(solution.voltages, state.drive(net._fixed))
        assert float(np.linalg.norm(residual)) <= 1e-10 * 100
        assert solution.residual_norm <= 1e-10 * 100


class TestDropMonotonicity:
    """Physical sanity on the cross-point model."""

    @pytest.mark.parametrize("scale", [0.5, 2.0])
    def test_wire_resistance_scales_drop(self, scale, mini_config):
        from repro.circuit.line_model import ReducedArrayModel

        harder = mini_config.with_array(r_wire=mini_config.array.r_wire * scale)
        v_base = ReducedArrayModel(mini_config).effective_voltage(31, 31)
        v_scaled = ReducedArrayModel(harder).effective_voltage(31, 31)
        if scale > 1:
            assert v_scaled < v_base
        else:
            assert v_scaled > v_base

    def test_sneak_scales_drop(self, mini_config):
        from repro.circuit.line_model import ReducedArrayModel

        leaky = mini_config.with_array(
            sneak_boost=mini_config.array.sneak_boost * 3
        )
        v_base = ReducedArrayModel(mini_config).effective_voltage(31, 31)
        v_leaky = ReducedArrayModel(leaky).effective_voltage(31, 31)
        assert v_leaky < v_base

    def test_drop_monotone_in_position(self, reduced_model_builder):
        model = reduced_model_builder(32)
        voltages = [model.effective_voltage(r, r) for r in (0, 10, 20, 31)]
        assert voltages == sorted(voltages, reverse=True)
