"""Scheme factory and latency-model tests across all techniques."""

import numpy as np
import pytest

from repro.techniques import (
    SchemeLatencyModel,
    make_baseline,
    make_dbl,
    make_drvr,
    make_dsgb,
    make_dswd,
    make_hard,
    make_hard_sys,
    make_naive_high_voltage,
    make_oracle,
    make_rbdl,
    make_sch,
    standard_schemes,
)
from repro.techniques.dummy_bl import DummyBitlinePartitioner

from ..cpu.scalar_latency import reset_phase_latency, write_latency


class TestFactories:
    def test_standard_registry_complete(self, small_config):
        schemes = standard_schemes(small_config, oracle_sections=(16, 32))
        for name in ("Base", "Hard", "Hard+Sys", "DRVR", "UDRVR+PR",
                     "UDRVR-3.94", "ora-16x16", "ora-32x32"):
            assert name in schemes

    def test_oracle_requires_divisible_section(self, small_config):
        with pytest.raises(ValueError):
            make_oracle(small_config, 48)

    def test_naive_voltage_must_exceed_vrst(self, small_config):
        with pytest.raises(ValueError):
            make_naive_high_voltage(small_config, 2.5)

    def test_wear_leveling_compatibility_flags(self, small_config):
        assert make_baseline(small_config).wear_leveling_compatible
        assert make_drvr(small_config).wear_leveling_compatible
        assert not make_sch(small_config).wear_leveling_compatible
        assert not make_rbdl(small_config).wear_leveling_compatible
        assert not make_hard_sys(small_config).wear_leveling_compatible

    def test_rbdl_reduces_sneak(self, small_config):
        scheme = make_rbdl(small_config)
        derived = scheme.effective_config(small_config)
        assert derived.array.sneak_boost < small_config.array.sneak_boost

    def test_overheads_combine_additively(self, small_config):
        hard = make_hard(small_config)
        dsgb = make_dsgb(small_config)
        dswd = make_dswd(small_config)
        dbl = make_dbl(small_config)
        expected = (
            dsgb.overheads.area_factor
            + dswd.overheads.area_factor
            + dbl.overheads.area_factor
            - 2.0
        )
        assert hard.overheads.area_factor == pytest.approx(expected)


class TestDummyBitlines:
    def test_full_width_when_any_reset(self):
        partitioner = DummyBitlinePartitioner()
        resets = np.zeros(8, dtype=bool)
        resets[2] = True
        plan = partitioner.plan(resets, np.zeros(8, dtype=bool))
        assert plan.reset_groups == tuple(range(8))
        assert plan.extra_resets == 7
        assert plan.extra_sets == 0

    def test_set_only_write_untouched(self):
        partitioner = DummyBitlinePartitioner()
        sets = np.ones(8, dtype=bool)
        plan = partitioner.plan(np.zeros(8, dtype=bool), sets)
        assert plan.reset_groups == ()
        assert plan.set_groups == tuple(range(8))


class TestLatencyModels:
    @pytest.fixture(scope="class")
    def models(self, small_config):
        names = ("Base", "Hard", "DRVR", "UDRVR+PR")
        schemes = standard_schemes(small_config, oracle_sections=(16,))
        return {
            name: SchemeLatencyModel(small_config, schemes[name])
            for name in names
        }

    def test_worst_case_ordering(self, models):
        worst = {
            name: model.worst_case_write_latency()
            for name, model in models.items()
        }
        assert worst["Base"] > worst["DRVR"] > worst["UDRVR+PR"]
        assert worst["Base"] > worst["Hard"]

    def test_set_phase_latency_from_table_iii(self, models, small_config):
        cell = small_config.cell
        expected = cell.e_set_per_bit / (cell.v_set * cell.i_set)
        assert models["Base"].set_latency == pytest.approx(expected)
        assert models["Base"].set_latency == pytest.approx(100e-9, rel=0.05)

    def test_empty_plan_costs_nothing(self, models):
        from repro.techniques.base import WritePlan

        plan = WritePlan(reset_groups=(), set_groups=())
        assert write_latency(models["Base"], 0, plan) == 0.0

    def test_reset_only_plan_skips_set_phase(self, models):
        from repro.techniques.base import WritePlan

        plan = WritePlan(reset_groups=(0,), set_groups=())
        base = models["Base"]
        assert write_latency(base, 0, plan) == reset_phase_latency(base, 0, (0,))

    def test_far_groups_slower(self, models, small_config):
        base = models["Base"]
        near = reset_phase_latency(base, 0, (0,))
        far = reset_phase_latency(base, 0, (7,))
        assert far > near

    def test_high_rows_slower_for_base(self, models, small_config):
        a = small_config.array.size
        base = models["Base"]
        assert reset_phase_latency(base, a - 1, (7,)) > reset_phase_latency(
            base, 0, (7,)
        )
