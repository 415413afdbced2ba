"""Lifetime estimator tests against the Fig. 5b narrative."""

from dataclasses import replace

import pytest

from repro.mem.lifetime import LifetimeEstimator
from repro.techniques import standard_schemes
from repro.techniques.partition_reset import PartitionResetPartitioner


@pytest.fixture(scope="module")
def reports(paper_config):
    estimator = LifetimeEstimator(paper_config)
    schemes = standard_schemes(paper_config)
    drvr_pr = replace(
        schemes["DRVR"],
        name="DRVR+PR",
        partitioner=PartitionResetPartitioner(),
        reset_before_set=True,
    )
    wanted = ["Base", "Hard+Sys", "Static-3.7V", "DRVR", "UDRVR+PR"]
    out = {name: estimator.estimate(schemes[name]) for name in wanted}
    out["DRVR+PR"] = estimator.estimate(drvr_pr)
    return out


class TestFigure5b:
    def test_baseline_lives_decades(self, reports):
        # Paper: 65 years for the 2.3 us baseline.
        assert 30 < reports["Base"].years < 150

    def test_naive_overdrive_dies_in_a_day_or_two(self, reports):
        # Paper: < 1 day at a static 3.7 V.
        assert reports["Static-3.7V"].days < 3

    def test_no_wear_leveling_dies_in_days(self, reports):
        # Paper: Hard+Sys without wear leveling fails within days.
        assert reports["Hard+Sys"].days < 30
        assert not reports["Hard+Sys"].wear_leveled

    def test_pr_costs_lifetime_vs_drvr(self, reports):
        # Paper: DRVR 6.75 y vs DRVR+PR 1 y (faster RESETs + extra writes).
        assert reports["DRVR+PR"].lifetime_s < reports["DRVR"].lifetime_s

    def test_udrvr_restores_ten_year_guarantee(self, reports):
        # The headline claim: UDRVR+PR keeps > 10-year lifetime.
        assert reports["UDRVR+PR"].years > 10
        assert (
            reports["UDRVR+PR"].lifetime_s > reports["DRVR+PR"].lifetime_s
        )

    def test_udrvr_raises_min_endurance(self, reports):
        # Fig. 13b: the left-most BLs' endurance rises well above 5e6.
        assert reports["UDRVR+PR"].min_endurance > 5 * reports["Base"].min_endurance

    def test_pr_inflates_cell_write_fraction(self, reports):
        assert reports["UDRVR+PR"].cell_write_fraction > reports[
            "Base"
        ].cell_write_fraction


class TestComponents:
    def test_write_cycle_includes_pump(self, paper_config):
        estimator = LifetimeEstimator(paper_config)
        scheme = standard_schemes(paper_config)["Base"]
        from repro.techniques import SchemeLatencyModel

        bare = SchemeLatencyModel(
            paper_config, scheme
        ).worst_case_write_latency()
        assert estimator.write_cycle(scheme) > bare

    def test_base_fraction_is_fnw_bound(self, paper_config):
        estimator = LifetimeEstimator(paper_config)
        scheme = standard_schemes(paper_config)["Base"]
        assert estimator.cell_write_fraction(scheme) == pytest.approx(0.5)

    def test_latency_tables_are_memoised_by_scheme_value(self, small_config):
        from repro.techniques import make_baseline, make_dbl

        estimator = LifetimeEstimator(small_config)
        # All three stay alive, so no two share an id.
        base, again, dbl = (
            make_baseline(small_config),
            make_baseline(small_config),
            make_dbl(small_config),
        )
        first = estimator._latency_model(base)
        assert estimator._latency_model(again) is first
        assert estimator._latency_model(dbl) is not first
        assert len(estimator._latency_models) == 2
