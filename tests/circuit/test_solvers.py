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
        with pytest.raises(ValueError, match="batched.*factor-cache.*reference"):
            get_backend("superlu-typo")
        with pytest.raises(ValueError, match="unknown solver backend"):
            solver_name("superlu-typo")

    def test_none_resolves_to_batched(self):
        assert isinstance(get_backend(None), BatchedBackend)
        assert solver_name(None) == "batched"

    def test_named_lookup_is_singleton(self):
        assert get_backend("factor-cache") is get_backend("factor-cache")
        assert get_backend("batched") is get_backend("batched")

    def test_instance_passthrough(self):
        mine = BatchedBackend(cache_size=2)
        assert get_backend(mine) is mine
        assert solver_name(mine) == "batched"

    def test_backend_classes_expose_names(self):
        assert ReferenceBackend.name == "reference"
        assert BatchedBackend.name == "batched"
        # The old name selects batched and keeps its own cache namespace.
        assert get_backend("factor-cache") is get_backend("batched")
        assert solver_name("factor-cache") == "factor-cache"


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
        cache.get(_cell_network())
        cache.get(_cell_network(extra_device=True))
        cache.get(_cell_network(r_scale=3.0))
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

    def test_cold_solve_many_is_bitwise_reference(
        self, reduced_model_builder, reset_vector_gen
    ):
        """One merged multi-network solve gives each network the bytes
        of its own ``reference`` solve, even after unrelated solves."""
        reference = reduced_model_builder(64, "reference")
        batched = reduced_model_builder(64, "batched")
        selections = reset_vector_gen(64, 6, n_bits=2)
        batched.solve_reset_many([(10, (3,)), (50, (60,))], 3.5)  # history
        got = batched.solve_reset_batch(selections, 3.3)
        for (row, cols), (_solution, voltages) in zip(selections, got):
            want = reference.solve_reset_batch([(row, cols)], 3.3)[0][1]
            np.testing.assert_array_equal(voltages, want)

    def test_ensemble_chunk_factorises_block_by_block(
        self, reduced_model_builder, monkeypatch
    ):
        """A 128-network ensemble chunk never hands SuperLU more than
        one network's matrix."""
        from repro.circuit.solvers import structure

        shapes = []
        real_splu = structure.spla.splu

        def recording_splu(matrix, *args, **kwargs):
            shapes.append(matrix.shape)
            return real_splu(matrix, *args, **kwargs)

        monkeypatch.setattr(structure.spla, "splu", recording_splu)
        model = reduced_model_builder(16, "batched")
        jobs = [(r % 16, (0,), 2.8 + 0.005 * r) for r in range(128)]
        nets = [
            model._build_reset_network(*model._normalise(row, cols, v), BASELINE_BIAS)[0]
            for row, cols, v in jobs
        ]
        free = nets[0].node_count - len(nets[0]._fixed)
        backend = BatchedBackend()
        collector = obs.Collector()
        with obs.collecting(collector):
            backend.solve_ensemble(nets, chunk=128)
        counters = collector.snapshot().to_plain()["counters"]
        assert shapes and set(shapes) == {(free, free)}
        assert counters["solver.factorisations"] == len(shapes)


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
