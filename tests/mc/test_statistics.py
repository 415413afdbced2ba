"""Statistical guarantees of the Monte Carlo variability engine.

Three families of invariants:

* **Reproducibility** — one master seed determines the whole ensemble
  bit for bit, across fresh contexts and model caches.
* **Moments** — the sampled lognormal spreads (droop, LRS, wire)
  recover their declared sigmas within sampling tolerance.
* **Bands** — p1/p50/p99 percentile bands are monotone by
  construction and non-degenerate whenever the fault model actually
  carries spread.
"""

import numpy as np
import pytest

from repro.engine import RunContext, run_experiment
from repro.faults import FaultModel
from repro.mc import DEFAULT_MC_RATES, PercentileBand, run_ensemble
from repro.xpoint.vmap import ModelCache

pytestmark = pytest.mark.faults


def _context(config, solver="batched"):
    return RunContext(config=config, model_cache=ModelCache(), solver=solver)


class TestReproducibility:
    def test_same_master_seed_is_bit_identical(self, mini_config):
        from repro.circuit.solvers import reset_backend_state
        from repro.xpoint.vmap import profile_registry

        def cold_run():
            # Cold start both times: solver warm-start vectors and the
            # shared profile registry would otherwise perturb the second
            # run's Newton trajectories at the 1e-10 level (and leave
            # quanta_solved legitimately reading 0 on a warm registry).
            reset_backend_state()
            profile_registry.clear()
            master = FaultModel.at_rate(1e-2, seed=21)
            return run_ensemble(_context(mini_config), samples=8, faults=master)

        assert cold_run().as_dict() == cold_run().as_dict()

    def test_different_master_seeds_diverge(self, mini_config):
        a = run_ensemble(
            _context(mini_config),
            samples=8,
            faults=FaultModel.at_rate(1e-2, seed=21),
        )
        b = run_ensemble(
            _context(mini_config),
            samples=8,
            faults=FaultModel.at_rate(1e-2, seed=22),
        )
        assert [i.seed for i in a.instances] != [i.seed for i in b.instances]
        assert a.as_dict() != b.as_dict()

    def test_instances_carry_derived_seeds(self, mini_config):
        master = FaultModel.at_rate(1e-2, seed=21)
        result = run_ensemble(_context(mini_config), samples=6, faults=master)
        assert [i.seed for i in result.instances] == [
            master.instance_seed(i) for i in range(6)
        ]
        assert result.master_seed == 21
        assert result.samples == 6

    def test_rejects_empty_ensembles(self, mini_config):
        with pytest.raises(ValueError, match="samples"):
            run_ensemble(_context(mini_config), samples=0)


def _per_instance(fm, samples, draw):
    """``draw(fm.for_instance(i))`` for each instance, as the Monte
    Carlo engine takes them."""
    return [draw(fm.for_instance(i)) for i in range(samples)]


class TestMoments:
    def test_cell_spread_recovers_lognormal_moments(self):
        fm = FaultModel(ron_sigma=0.3, seed=5)
        log_factors = np.log(
            _per_instance(fm, 64, lambda inst: inst.cell_latency_factors(32))
        )
        # n = 64 * 32 * 32 draws: the mean's standard error is
        # sigma / sqrt(n) ~ 0.0012, the std's ~ 0.0008.
        assert abs(log_factors.mean()) < 0.01
        assert abs(log_factors.std() - 0.3) < 0.01

    def test_wire_spread_recovers_lognormal_moments(self):
        fm = FaultModel(r_wire_sigma=0.2, seed=8)
        lines = _per_instance(fm, 64, lambda inst: inst.line_factors(64))
        log_lines = np.log(np.concatenate([np.ravel(pair) for pair in lines]))
        assert abs(log_lines.mean()) < 0.01
        assert abs(log_lines.std() - 0.2) < 0.01

    def test_droop_spread_recovers_lognormal_moments(self):
        # vrst_droop far from the clamp edges so no sample saturates
        # and the retained fraction stays a clean lognormal.
        fm = FaultModel(vrst_droop=0.3, droop_sigma=0.05, seed=13)
        droops = fm.ensemble_droops(2000)
        log_retained = np.log(1.0 - droops)
        assert abs(log_retained.mean() - np.log(0.7)) < 0.01
        assert abs(log_retained.std() - 0.05) < 0.005

    def test_stuck_fraction_recovers_rate(self):
        fm = FaultModel(sa0_rate=0.01, sa1_rate=0.01, seed=3)
        masks = _per_instance(fm, 32, lambda inst: inst.stuck_masks(64))
        stuck = np.mean([sa0 | sa1 for sa0, sa1 in masks])
        # 32 * 64 * 64 Bernoulli draws at p = 0.02: se ~ 0.0004.
        assert abs(stuck - 0.02) < 0.003


class TestExperiment:
    def test_mc_sweep_payload_contract(self, mini_config):
        context = RunContext(
            config=mini_config,
            model_cache=ModelCache(),
            solver="batched",
            params={"samples": 3},
        )
        result = run_experiment("mc-sweep", context)
        payload = result.payload
        assert payload["samples"] == 3  # the declared params channel
        assert tuple(payload["rates"]) == DEFAULT_MC_RATES
        assert set(payload["bands"]) == {f"{r:g}" for r in DEFAULT_MC_RATES}
        assert len(payload["mc_instances"]) == 3 * len(DEFAULT_MC_RATES)
        key = f"Base @ {DEFAULT_MC_RATES[-1]:g} # 0"
        metrics = payload["mc_instances"][key]
        assert set(metrics) == {
            "latency_us", "min_endurance", "fail_fraction", "stuck_fraction",
        }

    def test_mc_sweep_declares_samples_param(self):
        from repro.engine import all_experiments

        exp = all_experiments()["mc-sweep"]
        assert "samples" in exp.params


class TestBands:
    def test_band_ordering_is_monotone(self, mini_config):
        result = run_ensemble(
            _context(mini_config),
            samples=16,
            faults=FaultModel.at_rate(1e-2, seed=3),
        )
        for band in (result.latency_us, result.lifetime_at_risk, result.fail_fraction):
            assert band.p1 <= band.p50 <= band.p99

    def test_bands_spread_under_nonzero_sigma(self, mini_config):
        result = run_ensemble(
            _context(mini_config),
            samples=16,
            faults=FaultModel.at_rate(1e-2, seed=3),
        )
        # ron/droop spread > 0 must widen the latency band.
        assert result.latency_us.p99 > result.latency_us.p1

    def test_zero_spread_collapses_the_band(self, mini_config):
        result = run_ensemble(
            _context(mini_config), samples=4, faults=FaultModel()
        )
        assert result.latency_us.p1 == result.latency_us.p99

    def test_from_samples_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            PercentileBand.from_samples([])

    def test_from_samples_all_nonfinite_degenerates(self):
        band = PercentileBand.from_samples([np.inf, np.inf])
        assert band.p1 == band.p50 == band.p99 == np.inf

    def test_from_samples_clamps_mixed_infinities(self):
        band = PercentileBand.from_samples([1.0, 2.0, 3.0, np.inf])
        assert np.isfinite(band.p50)
        assert band.p99 <= 3.0  # inf ranks as the finite maximum

    def test_band_percentiles_match_numpy(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3]
        band = PercentileBand.from_samples(values)
        p1, p50, p99 = np.percentile(values, (1.0, 50.0, 99.0))
        assert band.p1 == pytest.approx(p1)
        assert band.p50 == pytest.approx(p50)
        assert band.p99 == pytest.approx(p99)
