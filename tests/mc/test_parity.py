"""Parity: the ensemble path against the single-instance layers.

The Monte Carlo engine re-routes profile solves through
``solve_ensemble`` and re-evaluates the fault algebra per instance; a
K=1 ensemble must therefore land exactly where the established
single-instance path lands — at the solver level (identical node
voltages), the profile level (identical BL drop profiles to 1e-9 V)
and the metric level (a faulted model's map-derived margins).
"""

import numpy as np
import pytest

from repro.circuit.crosspoint import BASELINE_BIAS
from repro.engine import RunContext
from repro.faults import FaultModel
from repro.mc import run_ensemble
from repro.xpoint.vmap import _VOLTAGE_QUANTUM, ArrayIRModel, ModelCache

pytestmark = pytest.mark.faults

#: The accelerated backends the ensemble path dispatches through.
ENSEMBLE_SOLVERS = ("batched",)


def _context(config, solver="batched"):
    return RunContext(config=config, model_cache=ModelCache(), solver=solver)


def _networks(model, jobs):
    """One reduced network per ``(row, cols, v_applied)`` job."""
    return [model.reset_network(row, cols, v) for row, cols, v in jobs]


class TestSolverEnsembleParity:
    @pytest.mark.parametrize("solver", ("reference", *ENSEMBLE_SOLVERS))
    def test_solve_ensemble_matches_solve_reset_batch(
        self, reduced_model_builder, reset_vector_gen, solver
    ):
        model = reduced_model_builder(size=32, solver=solver)
        v = model.config.cell.v_reset
        jobs = [(row, cols, v) for row, cols in reset_vector_gen(32, 6)]
        batch = model.solve_networks(_networks(model, jobs))
        ensemble = model.solve_networks(_networks(model, jobs), ensemble=True)
        assert len(ensemble) == len(batch)
        for (_, expected), (_, got) in zip(batch, ensemble):
            np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_chunked_ensemble_matches_unchunked(
        self, reduced_model_builder, reset_vector_gen
    ):
        model = reduced_model_builder(size=32, solver="batched")
        v = model.config.cell.v_reset
        jobs = [(row, cols, v) for row, cols in reset_vector_gen(32, 7)]
        whole = model.solve_networks(_networks(model, jobs), ensemble=True)
        chunked = model.solve_networks(
            _networks(model, jobs), ensemble=True, chunk=2
        )
        for (_, expected), (_, got) in zip(whole, chunked):
            np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_per_job_drive_levels(self, reduced_model_builder):
        """Ensemble jobs carry their own voltage."""
        model = reduced_model_builder(size=32, solver="batched")
        jobs = [(5, (0,), 3.0), (5, (0,), 3.1)]
        (low, _), (high, _) = model.solve_networks(
            _networks(model, jobs), ensemble=True
        )
        assert high.v_eff[(5, 0)] > low.v_eff[(5, 0)]


class TestProfileParity:
    @pytest.mark.parametrize("solver", ENSEMBLE_SOLVERS)
    def test_ensemble_profiles_match_single_voltage_path(
        self, mini_config, solver
    ):
        from repro.xpoint.vmap import profile_registry

        v = mini_config.cell.v_reset
        q = int(round(v / _VOLTAGE_QUANTUM))
        via_ensemble = ArrayIRModel(mini_config, solver=solver)
        profile = via_ensemble.ensemble_bl_profiles([v])[q]
        profile_registry.clear()
        via_single = ArrayIRModel(mini_config, solver=solver)
        np.testing.assert_allclose(
            profile, via_single.bl_drop_profile(v), atol=1e-9
        )

    def test_ensemble_fills_the_shared_registry(self, mini_config):
        """A second model's single-voltage lookup hits the ensemble's work."""
        from repro import obs

        v = mini_config.cell.v_reset
        q = int(round(v / _VOLTAGE_QUANTUM))
        first = ArrayIRModel(mini_config, solver="batched")
        solved = first.ensemble_bl_profiles([v])[q]
        collector = obs.Collector()
        with obs.collecting(collector):
            again = ArrayIRModel(mini_config, solver="batched").bl_drop_profile(v)
        counters = collector.snapshot().to_plain()["counters"]
        assert counters.get("profile_cache.registry_hit", 0) >= 1
        np.testing.assert_array_equal(again, solved)


class TestEnsembleMetricParity:
    #: Spread without droop sampling: at sigma 0 the K=1 instance sees
    #: exactly the analytic model's droop, so metrics must agree.
    MASTER = FaultModel(
        sa0_rate=0.005,
        sa1_rate=0.005,
        vrst_droop=0.02,
        r_wire_sigma=0.05,
        ron_sigma=0.05,
        droop_sigma=0.0,
        seed=11,
    )

    @pytest.mark.parametrize("solver", ENSEMBLE_SOLVERS)
    def test_k1_v_eff_matches_faulted_map(self, mini_config, solver):
        """The ensemble's v_eff algebra lands on v_eff_map to 1e-9 V."""
        a = mini_config.array.size
        fm0 = self.MASTER.for_instance(0)
        context = _context(mini_config, solver)
        nominal = context.nominal_ir_model()
        v_inst = mini_config.cell.v_reset * (1.0 - fm0.sampled_droop())
        q = int(round(v_inst / _VOLTAGE_QUANTUM))
        profile = nominal.ensemble_bl_profiles([v_inst])[q]
        wl_drop = np.asarray(nominal.wl_model.drop(np.arange(a), 1, BASELINE_BIAS))
        wl_factors, bl_factors = fm0.line_factors(a)
        v_eff = (
            v_inst
            - profile[:, None] * bl_factors[None, :]
            - wl_drop[None, :] * wl_factors[:, None]
        )
        faulted = ArrayIRModel(mini_config, faults=fm0, solver=solver)
        np.testing.assert_allclose(v_eff, faulted.v_eff_map(), atol=1e-9)

    @pytest.mark.parametrize("solver", ENSEMBLE_SOLVERS)
    def test_k1_metrics_match_faulted_maps(self, mini_config, solver):
        a = mini_config.array.size
        result = run_ensemble(
            _context(mini_config, solver), samples=1, faults=self.MASTER
        )
        assert result.samples == 1
        instance = result.instances[0]

        fm0 = self.MASTER.for_instance(0)
        model = ArrayIRModel(mini_config, faults=fm0, solver=solver)
        latency = model.latency_map()
        endurance = model.endurance_map()
        v_eff = model.v_eff_map()
        sa0, sa1 = fm0.stuck_masks(a)
        alive = ~(sa0 | sa1)
        finite = latency[alive & np.isfinite(latency)]
        assert instance.latency_us == pytest.approx(
            float(finite.max() * 1e6), rel=1e-6
        )
        assert instance.min_endurance == pytest.approx(
            float(endurance[alive].min()), rel=1e-6
        )
        assert instance.fail_fraction == pytest.approx(
            float(np.mean(v_eff[alive] < mini_config.cell.v_write_fail))
        )
        assert instance.stuck_fraction == pytest.approx(
            float(1.0 - alive.mean())
        )
        # K=1 bands collapse onto the single instance.
        assert result.latency_us.p1 == result.latency_us.p99 == instance.latency_us

