"""Experiment driver tests: structure + paper-anchor assertions.

Simulation-backed figures run with a tiny PerfSettings so the whole
file stays fast; the benchmark harness exercises the full settings.
"""

import numpy as np
import pytest

from repro.analysis.experiments import (
    PerfSettings,
    PerformanceRunner,
    fig01e,
    fig04,
    fig05b,
    fig05d,
    fig06,
    fig07b,
    fig09,
    fig11,
    fig11a,
    fig13,
    fig14,
    table_benchmarks,
    table_parameters,
)

QUICK = PerfSettings(
    scale=256, accesses_per_core=2500, benchmarks=("mcf_m",)
)


class TestCircuitFigures:
    def test_fig01e_series(self):
        data = fig01e()
        nodes = [node for node, _ in data["series"]]
        assert 20.0 in nodes and 10.0 in nodes

    def test_fig04_anchors(self):
        data = fig04()
        assert data["v_eff"].minimum == pytest.approx(1.70, abs=0.02)
        assert data["latency"].maximum == pytest.approx(2.3e-6, rel=0.05)
        assert data["endurance"].minimum == pytest.approx(5e6, rel=0.1)
        assert data["endurance"].top_right > 1e12
        assert data["latency_blocks"].shape == (8, 8)

    def test_fig06_over_reset(self):
        data = fig06()
        # Fig. 6a: 1.5K-5K writes at the bottom-left under 3.7 V.
        assert 1e3 < data["naive"]["endurance"].minimum < 1e4
        # DRVR keeps the nominal endurance at the bottom-left.
        assert data["drvr"]["endurance"].minimum == pytest.approx(5e6, rel=0.15)
        # And flattens the per-BL voltage spread.
        naive_sweep = (
            data["naive"]["v_eff"].maximum - data["naive"]["v_eff"].minimum
        )
        drvr_sweep = (
            data["drvr"]["v_eff"].maximum - data["drvr"]["v_eff"].minimum
        )
        assert drvr_sweep < naive_sweep

    def test_fig07b_anchors(self):
        data = fig07b()
        assert data["static_delta"] == pytest.approx(0.66, abs=0.04)
        assert data["drvr_intra_section_delta"] < 0.1

    def test_fig11a_sweet_spot(self):
        data = fig11a()
        assert data["optimal_bits"] == 4
        series = dict(data["series"])
        assert series[4] > series[1]
        assert series[8] < series[4]

    def test_fig11_pr_boosts_far_side(self):
        base = fig04()
        pr = fig11()
        assert pr["latency"].maximum < base["latency"].maximum
        # Worst-case endurance (bottom-left) is untouched by PR.
        assert pr["endurance"].minimum == pytest.approx(
            base["endurance"].minimum, rel=0.15
        )

    def test_fig13_udrvr_anchors(self):
        data = fig13()
        # Array latency drops two orders of magnitude from the 2.3 us
        # baseline (paper: 71 ns; the SET phase adds ~100 ns on top).
        assert data["latency"].maximum < 200e-9
        # Left-BL endurance lifted well above the 5e6 baseline.
        assert data["endurance"].minimum > 5e7


class TestWritePathFigures:
    def test_fig09_distributions(self):
        data = fig09(writes=300)
        for name, hist in data["histograms"].items():
            assert hist.sum() == pytest.approx(1.0)
            assert hist[0] > 0.4  # most MATs see no RESET
        # xalancbmk is the outlier with wide patterns (7/8-bit resets).
        assert (
            data["histograms"]["xal_m"][7:].sum()
            > data["histograms"]["ast_m"][7:].sum()
        )

    def test_fig14_anchors(self):
        data = fig14(writes=400)
        mean = data["mean"]
        # Paper: +54% RESETs, +48% SETs, +50.7% writes; 14.3% cells.
        assert mean["pr_write_increase"] == pytest.approx(0.507, abs=0.15)
        assert mean["pr_cells"] == pytest.approx(0.143, abs=0.05)
        assert mean["base_cells"] == pytest.approx(0.10, abs=0.04)
        # D-BL inflates RESETs far more than PR (paper: +235% vs +54%).
        assert mean["dbl_reset_increase"] > 2 * mean["pr_reset_increase"]


class TestLifetimeAndOverheads:
    def test_fig05b_ordering(self):
        reports = {r.scheme: r for r in fig05b()["reports"]}
        assert reports["UDRVR+PR"].years > 10
        assert reports["Static-3.7V"].days < 3
        assert reports["Hard+Sys"].days < 30
        assert reports["DRVR+PR"].lifetime_s < reports["DRVR"].lifetime_s

    def test_fig05d_ordering(self):
        reports = {r.scheme: r for r in fig05d()["reports"]}
        assert reports["Hard+Sys"].area_factor > 1.5
        assert reports["UDRVR+PR"].area_factor < 1.1


class TestDeterminism:
    def test_fig09_repeat_runs_bit_identical(self):
        """The RunContext-threaded seeds make repeated runs bit-identical."""
        first = fig09(writes=120)
        second = fig09(writes=120)
        assert set(first["histograms"]) == set(second["histograms"])
        for name in first["histograms"]:
            assert np.array_equal(
                first["histograms"][name], second["histograms"][name]
            ), name

    def test_fig09_context_seed_changes_draws(self):
        from repro.engine import RunContext

        default = fig09(writes=60)
        reseeded = fig09(writes=60, context=RunContext(seed=11))
        changed = any(
            not np.array_equal(default["histograms"][n], reseeded["histograms"][n])
            for n in default["histograms"]
        )
        assert changed

    def test_table_benchmarks_repeat_runs_identical(self):
        first = table_benchmarks(samples=500)
        second = table_benchmarks(samples=500)
        assert first["rows"] == second["rows"]


class TestPerformanceRunner:
    def test_memoisation(self):
        runner = PerformanceRunner(settings=QUICK)
        first = runner.run("Base", "mcf_m")
        second = runner.run("Base", "mcf_m")
        assert first is second

    def test_disk_cache_shares_cells_across_runners(self, tmp_path):
        from repro.engine import ResultCache, RunContext

        context = RunContext(cache=ResultCache(tmp_path / "cache"))
        warm = PerformanceRunner(settings=QUICK, context=context)
        result = warm.run("Base", "mcf_m")
        cold = PerformanceRunner(settings=QUICK, context=context)
        reloaded = cold.run("Base", "mcf_m")
        assert reloaded is not result  # came from disk, not memory
        assert reloaded.ipc == result.ipc
        assert reloaded.per_core_ipc == result.per_core_ipc

    def test_prefetch_validates_scheme_names_early(self):
        runner = PerformanceRunner(settings=QUICK)
        with pytest.raises(KeyError):
            runner.prefetch(("Base", "bogus"))

    def test_speedup_table_structure(self):
        runner = PerformanceRunner(settings=QUICK)
        table = runner.speedups(("Base", "UDRVR+PR"), normalise_to="ora-64x64")
        assert set(table) == {"mcf_m"}
        row = table["mcf_m"]
        assert row["UDRVR+PR"] >= row["Base"] > 0

    def test_unknown_scheme(self):
        runner = PerformanceRunner(settings=QUICK)
        with pytest.raises(KeyError):
            runner.scheme("bogus")

    def test_write_models_calibrate_on_the_context_solver(self, monkeypatch):
        """Under ``--solver reference`` every scheme's levels and latency
        tables come from ``reference``: no second calibration runs on
        the default backend, and the cell key names the solver."""
        from repro.circuit.solvers import BatchedBackend
        from repro.config import default_config
        from repro.engine import RunContext
        from repro.mem.line_codec import write_model
        from repro.xpoint.vmap import ModelCache

        def forbidden(*args, **kwargs):
            raise AssertionError("a batched solve ran under --solver reference")

        config = default_config(size=64)

        def runner(solver):
            context = RunContext(config=config, solver=solver, model_cache=ModelCache())
            return PerformanceRunner(config=config, settings=QUICK, context=context)

        default_key = runner("batched")._cell_key("Base", "mcf_m")
        monkeypatch.setattr(BatchedBackend, "solve_many", forbidden)
        reference = runner("reference")
        for name in ("Base", "DRVR+PR", "UDRVR+PR"):
            model = write_model(*reference._recipe(name))
            assert model.latency_model.ir_model.solver == "reference"
        assert reference._cell_key("Base", "mcf_m") != default_key


class TestTables:
    def test_parameters_match_table_i(self):
        params = table_parameters()
        assert params["array"].size == 512
        assert params["array"].r_wire == 11.5
        assert params["cell"].i_on == pytest.approx(90e-6)
        assert params["memory"].capacity_bytes == 64 << 30

    def test_benchmark_rates_reproduced(self):
        data = table_benchmarks(samples=3000)
        for name, row in data["rows"].items():
            if name.startswith("mix"):
                continue
            assert row["measured_rpki"] == pytest.approx(
                row["target_rpki"], rel=0.2
            )
