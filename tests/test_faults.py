"""Device-level fault injection: model sampling, maps, netlist, sweep."""

import pickle

import numpy as np
import pytest

from repro.circuit.crosspoint import FullArrayModel
from repro.config import config_hash
from repro.engine import RunContext
from repro.faults import FaultModel
from repro.faults.sweep import DEFAULT_RATES, DEFAULT_SCHEMES, fault_sweep
from repro.xpoint.vmap import ArrayIRModel, ModelCache

pytestmark = pytest.mark.faults


class TestFaultModel:
    def test_validation(self):
        with pytest.raises(ValueError, match="sa0_rate"):
            FaultModel(sa0_rate=1.2)
        with pytest.raises(ValueError, match="sa1_rate"):
            FaultModel(sa1_rate=-0.1)
        with pytest.raises(ValueError, match="alive"):
            FaultModel(sa0_rate=0.6, sa1_rate=0.6)
        with pytest.raises(ValueError, match="vrst_droop"):
            FaultModel(vrst_droop=1.0)
        with pytest.raises(ValueError, match="r_wire_sigma"):
            FaultModel(r_wire_sigma=-0.5)
        with pytest.raises(ValueError, match="rate"):
            FaultModel.at_rate(1.5)

    def test_null_detection(self):
        assert FaultModel().is_null
        assert FaultModel.at_rate(0.0).is_null
        assert not FaultModel(vrst_droop=0.05).is_null
        assert not FaultModel.at_rate(1e-3).is_null

    def test_at_rate_composition(self):
        fm = FaultModel.at_rate(0.01, seed=9)
        assert fm.sa0_rate == fm.sa1_rate == 0.005
        assert fm.vrst_droop == pytest.approx(0.02)
        assert fm.r_wire_sigma == fm.ron_sigma == pytest.approx(0.05)
        assert fm.seed == 9
        assert fm.with_seed(3).seed == 3

    def test_stuck_masks_deterministic_and_disjoint(self):
        fm = FaultModel(sa0_rate=0.05, sa1_rate=0.05, seed=4)
        sa0, sa1 = fm.stuck_masks(64)
        again0, again1 = fm.stuck_masks(64)
        assert np.array_equal(sa0, again0) and np.array_equal(sa1, again1)
        assert not (sa0 & sa1).any()
        other0, _ = fm.with_seed(5).stuck_masks(64)
        assert not np.array_equal(sa0, other0)

    def test_stuck_sets_nested_across_rates(self):
        """Same seed, growing rate: fault sets only ever grow."""
        low0, low1 = FaultModel.at_rate(1e-3, seed=2).stuck_masks(128)
        high0, high1 = FaultModel.at_rate(1e-2, seed=2).stuck_masks(128)
        stuck_low = low0 | low1
        stuck_high = high0 | high1
        assert (stuck_low & ~stuck_high).sum() == 0  # subset
        assert stuck_high.sum() > stuck_low.sum()

    def test_spread_factors(self):
        fm = FaultModel(r_wire_sigma=0.2, ron_sigma=0.3, seed=1)
        wl, bl = fm.line_factors(256)
        assert wl.shape == bl.shape == (256,)
        assert (wl > 0).all() and (bl > 0).all()
        assert not np.array_equal(wl, bl)
        cells = fm.cell_latency_factors(64)
        assert cells.shape == (64, 64)
        assert (cells > 0).all()
        # Null sigmas sample nothing.
        null = FaultModel()
        assert (null.line_factors(8)[0] == 1.0).all()
        assert (null.cell_latency_factors(8) == 1.0).all()

    def test_applied_voltage_droop(self):
        assert FaultModel(vrst_droop=0.1).applied_voltage(3.0) == pytest.approx(2.7)
        assert FaultModel().applied_voltage(3.0) == 3.0

    def test_picklable_and_hashable_key(self):
        fm = FaultModel.at_rate(1e-3, seed=7)
        assert pickle.loads(pickle.dumps(fm)) == fm
        assert config_hash(fm) == config_hash(FaultModel.at_rate(1e-3, seed=7))
        assert config_hash(fm) != config_hash(fm.with_seed(8))


class TestInstanceSeeding:
    """Monte Carlo per-instance seed derivation (``for_instance``)."""

    def test_instance_seed_is_not_additive(self):
        """The mixed derivation must not degenerate to ``seed + i``."""
        fm = FaultModel.at_rate(1e-3, seed=20)
        for i in range(64):
            assert fm.instance_seed(i) != fm.seed + i

    def test_no_collision_with_the_seed_ladder(self):
        """Instance ``i`` of seed ``s`` != instance 0 of seed ``s + i``.

        An additive scheme would alias ensemble members against the
        fault-sweep's consecutive-seed ladder; the chained-token mix
        keeps the two seed families disjoint.
        """
        ensemble = {FaultModel(seed=100).instance_seed(i) for i in range(32)}
        ladder = {FaultModel(seed=100 + i).instance_seed(0) for i in range(1, 32)}
        assert not ensemble & ladder

    def test_instance_seeds_are_distinct_and_deterministic(self):
        fm = FaultModel.at_rate(1e-2, seed=5)
        seeds = [fm.instance_seed(i) for i in range(128)]
        assert len(set(seeds)) == 128
        assert seeds == [fm.instance_seed(i) for i in range(128)]

    def test_for_instance_changes_only_the_seed(self):
        fm = FaultModel.at_rate(1e-2, seed=5)
        derived = fm.for_instance(3)
        assert derived.seed == fm.instance_seed(3)
        assert derived.sa0_rate == fm.sa0_rate
        assert derived.r_wire_sigma == fm.r_wire_sigma
        assert derived.droop_sigma == fm.droop_sigma

    def test_negative_instance_rejected(self):
        with pytest.raises(ValueError, match="instance"):
            FaultModel().instance_seed(-1)

    def test_sampled_droop_zero_sigma_is_exact(self):
        """No generator draw at sigma 0: bit-equal to the analytic path."""
        fm = FaultModel(vrst_droop=0.07, droop_sigma=0.0, seed=9)
        assert fm.sampled_droop() == 0.07

    def test_ensemble_samplers_match_per_instance_draws(self):
        fm = FaultModel.at_rate(2e-2, seed=6)
        droops = fm.ensemble_droops(5)
        for i in range(5):
            assert droops[i] == fm.for_instance(i).sampled_droop()


class TestMapInjection:
    def test_null_fault_model_is_identity(self, small_config):
        nominal = ArrayIRModel(small_config)
        null = ArrayIRModel(small_config, faults=FaultModel())
        assert null.faults is None
        assert np.array_equal(nominal.v_eff_map(), null.v_eff_map())
        assert np.array_equal(nominal.latency_map(), null.latency_map())

    def test_droop_lowers_v_eff(self, small_config):
        nominal = ArrayIRModel(small_config)
        drooped = ArrayIRModel(
            small_config, faults=FaultModel(vrst_droop=0.05)
        )
        assert (drooped.v_eff_map() < nominal.v_eff_map()).all()

    def test_stuck_cells_pin_latency_and_endurance(self, small_config):
        fm = FaultModel(sa0_rate=0.05, sa1_rate=0.05, seed=1)
        model = ArrayIRModel(small_config, faults=fm)
        sa0, sa1 = fm.stuck_masks(small_config.array.size)
        latency = model.latency_map()
        endurance = model.endurance_map()
        assert (latency[sa0] == 0.0).all()  # RESET is a no-op
        assert np.isinf(latency[sa1]).all()  # RESET never completes
        assert (endurance[sa0 | sa1] == 0.0).all()
        alive = ~(sa0 | sa1)
        assert np.isfinite(latency[alive]).all()
        assert (endurance[alive] > 0).all()

    def test_lrs_spread_changes_latency_not_v_eff(self, small_config):
        nominal = ArrayIRModel(small_config)
        spread = ArrayIRModel(
            small_config, faults=FaultModel(ron_sigma=0.2, seed=3)
        )
        assert np.array_equal(nominal.v_eff_map(), spread.v_eff_map())
        assert not np.array_equal(nominal.latency_map(), spread.latency_map())

    def test_model_cache_keyed_by_faults(self, small_config):
        cache = ModelCache()
        fm = FaultModel.at_rate(1e-3, seed=2)
        nominal = cache.get(small_config)
        faulted = cache.get(small_config, faults=fm)
        assert faulted is not nominal
        assert cache.get(small_config, faults=fm) is faulted
        # A null model normalises onto the fault-free entry.
        assert cache.get(small_config, faults=FaultModel()) is nominal


class TestNetlistInjection:
    def test_droop_lowers_selected_cell_voltage(self, tiny_config):
        nominal = FullArrayModel(tiny_config).solve_reset(0, (0,))
        drooped = FullArrayModel(
            tiny_config, faults=FaultModel(vrst_droop=0.1)
        ).solve_reset(0, (0,))
        assert drooped.v_eff[(0, 0)] < nominal.v_eff[(0, 0)]

    def test_sa1_cells_raise_sneak_load(self, tiny_config):
        """Stuck-at-LRS cells conduct everywhere: WL current grows."""
        nominal = FullArrayModel(tiny_config).solve_reset(0, (0,))
        sneaky = FullArrayModel(
            tiny_config, faults=FaultModel(sa1_rate=0.2, seed=5)
        ).solve_reset(0, (0,))
        assert sneaky.total_wl_current > nominal.total_wl_current

    def test_null_faults_match_fault_free_solve(self, tiny_config):
        nominal = FullArrayModel(tiny_config).solve_reset(0, (0, 3))
        null = FullArrayModel(
            tiny_config, faults=FaultModel()
        ).solve_reset(0, (0, 3))
        assert nominal.v_eff == null.v_eff


class TestFaultSweep:
    def _run(self, config):
        return fault_sweep(config=config, context=RunContext(config=config))

    def test_shape_and_determinism(self, small_config):
        payload = self._run(small_config)
        assert payload["rates"] == list(DEFAULT_RATES)
        assert payload["schemes"] == list(DEFAULT_SCHEMES)
        expected = {
            f"{scheme} @ {rate:g}"
            for rate in DEFAULT_RATES
            for scheme in DEFAULT_SCHEMES
        }
        assert set(payload["margins"]) == expected
        assert payload == self._run(small_config)  # bit-identical re-run

    def test_margins_degrade_with_rate(self, small_config):
        margins = self._run(small_config)["margins"]
        for scheme in DEFAULT_SCHEMES:
            stuck = [
                margins[f"{scheme} @ {rate:g}"]["stuck_fraction"]
                for rate in DEFAULT_RATES
            ]
            assert stuck == sorted(stuck)  # nested fault sets
            healthy = margins[f"{scheme} @ 0"]
            worst = margins[f"{scheme} @ {max(DEFAULT_RATES):g}"]
            assert worst["latency_us"] > healthy["latency_us"]

    def test_drvr_keeps_margin_under_faults(self, small_config):
        """The paper's regulation still beats Base on a faulty array."""
        margins = self._run(small_config)["margins"]
        worst = max(DEFAULT_RATES)
        base = margins[f"Base @ {worst:g}"]
        drvr_pr = margins[f"DRVR+PR @ {worst:g}"]
        assert drvr_pr["latency_us"] < base["latency_us"]
