"""Solver backend mechanics: registry, caches, counters, regressions."""

import numpy as np
import pytest

from repro import obs
from repro.circuit.crosspoint import BASELINE_BIAS
from repro.circuit.network import GROUND, ConvergenceError, Network
from repro.circuit.selector import OnStackModel
from repro.circuit.solvers import (
    BatchedBackend,
    ReferenceBackend,
    available_solvers,
    get_backend,
    solver_name,
)

from ..conftest import ALL_SOLVERS

#: Node-voltage agreement asked of ``batched`` against ``reference``.
PARITY_ATOL = 1e-9


def _cell_network(v_drive=2.8, extra_device=False, r_scale=1.0):
    """A tiny nonlinear network: driver -> wire -> device stack -> ground."""
    net = Network()
    driver = net.add_node()
    mid = net.add_node()
    tail = net.add_node()
    net.fix_voltage(driver, v_drive)
    net.add_resistor(driver, mid, 50.0 * r_scale)
    net.add_resistor(mid, tail, 25.0 * r_scale)
    stack = OnStackModel(i_on=1e-4)
    net.add_device(mid, tail, stack)
    net.add_resistor(tail, GROUND, 40.0)
    if extra_device:
        net.add_device(driver, tail, OnStackModel(i_on=5e-6))
    return net


class TestRegistry:
    def test_available_solvers_sorted_and_complete(self):
        assert available_solvers() == tuple(sorted(ALL_SOLVERS))

    def test_unknown_backend_lists_choices(self):
        with pytest.raises(ValueError, match="batched, reference"):
            get_backend("superlu-typo")
        with pytest.raises(ValueError, match="unknown solver backend"):
            solver_name("superlu-typo")

    def test_none_resolves_to_batched(self):
        assert isinstance(get_backend(None), BatchedBackend)
        assert solver_name(None) == "batched"

    def test_named_lookup_is_singleton(self):
        assert get_backend("reference") is get_backend("reference")
        assert get_backend("batched") is get_backend("batched")

    def test_instance_passthrough(self):
        mine = BatchedBackend(cache_size=2)
        assert get_backend(mine) is mine
        assert solver_name(mine) == "batched"

    def test_backend_classes_expose_names(self):
        assert ReferenceBackend.name == "reference"
        assert BatchedBackend.name == "batched"

    def test_removed_factor_cache_name_points_at_batched(self):
        with pytest.raises(ValueError, match="'factor-cache'.*batched"):
            solver_name("factor-cache")


class TestObsCounters:
    def test_factor_cache_hit_miss_counters(self):
        backend = BatchedBackend()
        collector = obs.Collector()
        with obs.collecting(collector):
            backend.solve(_cell_network(2.8))
            backend.solve(_cell_network(2.6))  # same pattern, new drive
        counters = collector.snapshot().to_plain()["counters"]
        assert counters["solver.factor_misses"] == 1
        assert counters["solver.factor_hits"] == 1
        assert counters["solver.solves"] == 2

    def test_batched_gauge_records_batch_size(self):
        backend = BatchedBackend()
        collector = obs.Collector()
        with obs.collecting(collector):
            backend.solve_many([_cell_network(v) for v in (2.8, 2.7, 2.6)])
        plain = collector.snapshot().to_plain()
        assert plain["counters"]["solver.solves"] == 3
        assert plain["gauges"]["solver.batch_size"] == 3


class TestStructureReuse:
    def test_pattern_signature_ignores_drive_values(self):
        assert (
            _cell_network(2.8).pattern_signature()
            == _cell_network(2.2).pattern_signature()
        )

    def test_pattern_signature_tracks_topology(self):
        base = _cell_network()
        assert (
            base.pattern_signature()
            != _cell_network(extra_device=True).pattern_signature()
        )
        assert (
            base.pattern_signature()
            != _cell_network(r_scale=2.0).pattern_signature()
        )

    def test_mutation_bumps_revision_and_signature(self):
        net = _cell_network()
        before = net.pattern_signature()
        revision = net.revision
        net.add_resistor(0, 2, 1e6)
        assert net.revision > revision
        assert net.pattern_signature() != before

    def test_stale_structure_rebuilt_when_pattern_changes(self):
        """Regression: conductance topology changing mid-sweep (an SA0
        cell swapping its device model) must rebuild the cached Jacobian
        structure, not silently reuse the stale one."""
        backend = BatchedBackend()
        net = _cell_network()
        first = backend.solve(net)
        # Mutate the *same* network object the way the fault layer swaps
        # a cell: new device, new sparsity pattern.
        net.add_device(0, 2, OnStackModel(i_on=2e-5))
        mutated = backend.solve(net)
        fresh = _cell_network(extra_device=False)
        fresh.add_device(0, 2, OnStackModel(i_on=2e-5))
        want = fresh.solve(backend="reference")
        np.testing.assert_allclose(
            mutated.voltages, want.voltages, atol=1e-9, rtol=0
        )
        # The pre-mutation solution must differ (the extra device loads
        # the ladder) or this regression test would prove nothing.
        assert np.max(np.abs(mutated.voltages - first.voltages)) > 1e-6

    def test_refresh_rejects_different_pinned_set(self):
        from repro.circuit.solvers.structure import SolverStructure

        structure = SolverStructure(_cell_network())
        other = _cell_network()
        other.fix_voltage(2, 0.5)
        with pytest.raises(ValueError, match="invalid"):
            structure.drive(other)

    def test_lru_bound_evicts_coldest(self):
        from repro.circuit.solvers.structure import StructureCache

        cache = StructureCache(maxsize=2)
        for network in (
            _cell_network(),
            _cell_network(extra_device=True),
            _cell_network(r_scale=3.0),
        ):
            cache.get(network.pattern_signature(), lambda: network)
        assert len(cache) == 2



class TestBatchedMechanics:
    def test_empty_batch(self):
        assert BatchedBackend().solve_many([]) == []

    def test_initials_length_mismatch(self):
        with pytest.raises(ValueError, match="initial guesses"):
            BatchedBackend().solve_many([_cell_network()], initials=[None, None])

    def test_single_network_solve_matches_reference(self):
        got = BatchedBackend().solve(_cell_network())
        want = _cell_network().solve(backend="reference")
        np.testing.assert_allclose(got.voltages, want.voltages, atol=1e-9, rtol=0)

    def test_mixed_initial_guesses(self):
        nets = [_cell_network(2.8), _cell_network(2.4)]
        guess = _cell_network(2.8).solve(backend="reference").voltages
        got = BatchedBackend().solve_many(nets, initials=[guess, None])
        for v, sol in zip((2.8, 2.4), got):
            want = _cell_network(v).solve(backend="reference")
            np.testing.assert_allclose(
                sol.voltages, want.voltages, atol=1e-9, rtol=0
            )

    def test_structure_hit_merges_nothing(self, monkeypatch):
        """A batch whose structure is cached is not merged again; its
        drive comes from the members' pinned values."""
        from repro.circuit.solvers import batched

        merges = []
        merge = batched._merge_networks

        def counted(networks):
            merges.append(len(networks))
            return merge(networks)

        monkeypatch.setattr(batched, "_merge_networks", counted)
        backend = BatchedBackend()
        backend.solve_many([_cell_network(2.8), _cell_network(2.4)])
        got = backend.solve_many([_cell_network(2.0), _cell_network(2.6)])
        assert merges == [2]
        want = BatchedBackend().solve_many([_cell_network(2.0), _cell_network(2.6)])
        for sol, expected in zip(got, want, strict=True):
            assert np.array_equal(sol.voltages, expected.voltages)

    def test_members_sharing_a_model_key_apart(self):
        """Members that share a model object merge into one device
        group, so their batch does not reuse the structure of equal
        members with a model each."""
        backend = BatchedBackend()
        backend.solve_many([_cell_network(2.8), _cell_network(2.4)])
        net = _cell_network(2.8)
        batch = [net, net.redriven({0: 2.4})]
        got = backend.solve_many(batch)
        assert len(backend.cache) == 2
        want = BatchedBackend().solve_many(batch)
        for sol, expected in zip(got, want, strict=True):
            assert np.array_equal(sol.voltages, expected.voltages)

    def test_merged_solution_slices_per_network(self):
        nets = [_cell_network(2.8), _cell_network(2.4)]
        solutions = BatchedBackend().solve_many(nets)
        for net, sol in zip(nets, solutions):
            assert sol.voltages.shape == (net.node_count,)


class TestConvergenceBehaviour:
    @pytest.mark.parametrize("solver", ALL_SOLVERS)
    def test_iteration_budget_exhaustion_raises(self, solver):
        net = _cell_network()
        with pytest.raises(ConvergenceError, match="converge|stalled"):
            net.solve(backend=solver, max_iterations=0, tol=1e-300)

    @pytest.mark.parametrize("solver", ALL_SOLVERS)
    def test_explicit_initial_guess_accepted(self, solver):
        net = _cell_network()
        guess = np.full(net.node_count, 1.0)
        solution = net.solve(backend=solver, initial=guess)
        want = _cell_network().solve(backend="reference")
        np.testing.assert_allclose(
            solution.voltages, want.voltages, atol=1e-9, rtol=0
        )


class TestHistoryFree:
    """No solve depends on what was solved before it or beside it."""

    @staticmethod
    def _solve(model, selections, v_applied):
        """Node voltages of one multi-network solve of ``selections``."""
        networks = [
            model.reset_network(row, cols, v_applied) for row, cols in selections
        ]
        return [voltages for _solution, voltages in model.solve_networks(networks)]

    @staticmethod
    def _mixed_selections(reset_vector_gen):
        """1-, 2- and 8-bit selections in one batch, so the merged band
        is wider than most of its blocks' own."""
        return [
            *reset_vector_gen(64, 2, n_bits=1),
            *reset_vector_gen(64, 2, n_bits=2),
            *reset_vector_gen(64, 2, n_bits=8),
        ]

    def test_merged_solve_is_bitwise_standalone(
        self, reduced_model_builder, reset_vector_gen
    ):
        """One merged multi-network solve gives each network the bytes
        of its own standalone ``batched`` solve, even after unrelated
        solves."""
        batched = reduced_model_builder(64, "batched")
        selections = self._mixed_selections(reset_vector_gen)
        self._solve(batched, [(10, (3,)), (50, (60,))], 3.5)  # history
        got = self._solve(batched, selections, 3.3)
        for (row, cols), voltages in zip(selections, got):
            (alone,) = self._solve(batched, [(row, cols)], 3.3)
            np.testing.assert_array_equal(voltages, alone)

    def test_merged_solve_is_near_reference(
        self, reduced_model_builder, reset_vector_gen
    ):
        reference = reduced_model_builder(64, "reference")
        batched = reduced_model_builder(64, "batched")
        selections = self._mixed_selections(reset_vector_gen)
        self._solve(batched, [(10, (3,)), (50, (60,))], 3.5)  # history
        got = self._solve(batched, selections, 3.3)
        for (row, cols), voltages in zip(selections, got):
            (want,) = self._solve(reference, [(row, cols)], 3.3)
            np.testing.assert_allclose(voltages, want, atol=PARITY_ATOL, rtol=0)

    def test_ensemble_chunk_takes_one_band_solve_per_iteration(
        self, reduced_model_builder, monkeypatch
    ):
        """A 128-network ensemble chunk never calls SuperLU: each Newton
        iteration is one band solve over the blocks still active, and
        still counts one factorisation per active block."""
        from repro.circuit.solvers import structure

        def no_splu(*args, **kwargs):
            raise AssertionError("SuperLU called on a forest pattern")

        widths = []
        real_gbsv = structure.lapack.dgbsv

        def recording_gbsv(kl, ku, ab, b, **kwargs):
            widths.append(ab.shape[1])
            return real_gbsv(kl, ku, ab, b, **kwargs)

        monkeypatch.setattr(structure.spla, "splu", no_splu)
        monkeypatch.setattr(structure.lapack, "dgbsv", recording_gbsv)
        model = reduced_model_builder(16, "batched")
        jobs = [(r % 16, (0,), 2.8 + 0.005 * r) for r in range(128)]
        nets = [
            model._build_reset_network(*model._normalise(row, cols, v), BASELINE_BIAS).network
            for row, cols, v in jobs
        ]
        free = nets[0].node_count - len(nets[0]._fixed)
        backend = BatchedBackend()
        collector = obs.Collector()
        with obs.collecting(collector):
            solutions = backend.solve_ensemble(nets, chunk=128)
        counters = collector.snapshot().to_plain()["counters"]
        steps = [solution.iterations for solution in solutions]
        # Iteration k solves every block that took at least k steps.
        assert widths == [
            free * sum(s >= k for s in steps) for k in range(1, max(steps) + 1)
        ]
        assert counters["solver.factorisations"] == sum(steps)
        assert counters["solver.newton_iterations"] == sum(steps)


class TestBandPlan:
    """Which patterns take the band step, and how wide their band is."""

    @staticmethod
    def _plan(model, row, cols, bias=BASELINE_BIAS):
        from repro.circuit.solvers.structure import SolverStructure

        net = model._build_reset_network(*model._normalise(row, cols, None), bias).network
        return SolverStructure(net, banded=True).band

    @pytest.mark.parametrize("size", [64, 512])
    def test_one_bit_figure_networks_are_narrow(self, size, reduced_model_builder):
        """The profile grid (column 0), the single-bit pattern and the
        worst corner: a ladder with at most one branch point."""
        model = reduced_model_builder(size, "batched")
        rows = np.unique(np.round(np.linspace(0, size - 1, 13)).astype(int))
        selections = [(int(row), (0,)) for row in rows]
        selections += [(size // 3, (size - 1,)), (size - 1, (size - 1,))]
        for row, cols in selections:
            assert self._plan(model, row, cols).kd <= 2, (row, cols)

    @pytest.mark.parametrize("size", [64, 512])
    def test_n_bit_bandwidth(self, size, reduced_model_builder, reset_vector_gen):
        """A breadth-first level holds one node per live branch, two per
        selected BL at most: ``kd <= 2 * n_bits + 1`` on any selection,
        and ``n_bits + 3`` on the 4-bit partition pattern."""
        model = reduced_model_builder(size, "batched")
        for n_bits in (1, 2, 4, 8):
            for row, cols in reset_vector_gen(size, 6, n_bits=n_bits):
                assert self._plan(model, row, cols).kd <= 2 * n_bits + 1
        pr = (size // 8, size // 4 + 1, size // 2 + 3, size - 2)
        assert self._plan(model, size // 2, pr).kd <= 4 + 3

    def test_tapped_ladders_solve_near_reference(self, reduced_model_builder):
        """Taps pin ladder nodes, cutting each ladder into segments: one
        network, several components, one band."""
        from scipy.sparse import csgraph

        from repro.circuit.solvers.structure import SolverStructure
        from repro.techniques.oracle import oracle_bias

        bias = oracle_bias(16)
        reference = reduced_model_builder(64, "reference")
        batched = reduced_model_builder(64, "batched")
        row, cols = 40, (5, 37)
        net = batched._build_reset_network(
            *batched._normalise(row, cols, None), bias
        ).network
        components, _labels = csgraph.connected_components(
            SolverStructure(net)._base, directed=False
        )
        assert components > 4
        assert SolverStructure(net, banded=True).band is not None
        want = reference.solve_reset(row, cols, bias=bias)
        got = batched.solve_reset(row, cols, bias=bias)
        for col, profile in want.bl_profiles.items():
            np.testing.assert_allclose(
                got.bl_profiles[col], profile, atol=PARITY_ATOL, rtol=0
            )
        np.testing.assert_allclose(
            got.wl_profile, want.wl_profile, atol=PARITY_ATOL, rtol=0
        )

    def test_full_array_grid_keeps_superlu_and_reference_bits(self, monkeypatch):
        """The 2-D grid has cycles: ``batched`` factorises it with
        SuperLU, bit-identical to ``reference``."""
        from repro.circuit.crosspoint import FullArrayModel
        from repro.circuit.solvers import structure
        from repro.config import default_config

        def no_gbsv(*args, **kwargs):
            raise AssertionError("band step on a pattern with cycles")

        config = default_config(size=16)
        want = FullArrayModel(config, solver="reference").solve_reset(8, (3, 15))
        monkeypatch.setattr(structure.lapack, "dgbsv", no_gbsv)
        got = FullArrayModel(config, solver="batched").solve_reset(8, (3, 15))
        np.testing.assert_array_equal(got.wl_plane, want.wl_plane)
        np.testing.assert_array_equal(got.bl_plane, want.bl_plane)
        assert got.v_eff == want.v_eff


class TestSeededFallback:
    def test_seeded_failure_falls_back_to_flat_start(self, monkeypatch):
        from repro.circuit.solvers import batched as batched_module

        real = batched_module.newton_block_solve
        calls = []

        def flaky(structure, blocks, drive, initials=None, **kwargs):
            calls.append(initials)
            results = real(structure, blocks, drive, initials, **kwargs)
            if len(calls) == 1:
                results[1] = ConvergenceError("injected seeded failure")
            return results

        monkeypatch.setattr(batched_module, "newton_block_solve", flaky)
        nets = [_cell_network(2.8), _cell_network(2.4)]
        seeds = [None, np.full(nets[1].node_count, 1.0)]
        collector = obs.Collector()
        with obs.collecting(collector):
            got = BatchedBackend().solve_many(nets, initials=seeds)
        # Only the failed seeded block re-runs, from a flat start.
        assert len(calls) == 2
        assert calls[1] is None
        counters = collector.snapshot().to_plain()["counters"]
        assert counters.get("solver.cold_fallbacks") == 1
        for v, sol in zip((2.8, 2.4), got):
            want = _cell_network(v).solve(backend="reference")
            np.testing.assert_array_equal(sol.voltages, want.voltages)

    def test_cold_failure_is_final(self, monkeypatch):
        from repro.circuit.solvers import batched as batched_module

        def always_fails(structure, blocks, drive, initials=None, **kwargs):
            return [ConvergenceError("injected cold failure")] * len(blocks)

        monkeypatch.setattr(batched_module, "newton_block_solve", always_fails)
        collector = obs.Collector()
        with obs.collecting(collector):
            with pytest.raises(ConvergenceError, match="injected cold"):
                BatchedBackend().solve(_cell_network())
        counters = collector.snapshot().to_plain()["counters"]
        assert "solver.cold_fallbacks" not in counters
