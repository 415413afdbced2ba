"""Cross-module integration tests: the full pipeline on one config."""

import numpy as np
import pytest

from repro import get_ir_model
from repro.cpu.system import SystemSimulator
from repro.mem.energy import EnergyModel
from repro.mem.lifetime import LifetimeEstimator
from repro.mem.line_codec import LineWriteModel
from repro.techniques import make_baseline, make_udrvr_pr, standard_schemes
from repro.workloads import WritePatternGenerator, get_benchmark
from repro.workloads.benchmarks import scale_benchmark


class TestWritePipeline:
    """Post-Flip-N-Write masks -> line codec -> latency/energy."""

    def test_fnw_to_line_write(self, small_config):
        line_bits = small_config.memory.line_bytes * 8
        patterns = WritePatternGenerator(
            get_benchmark("mcf_m").patterns[0], line_bits, seed=0
        )
        resets, sets = patterns.masks()
        assert resets.any() and not (resets & sets).any()

        model = LineWriteModel(small_config, make_udrvr_pr(small_config))
        result = model.write(resets, sets, row=10)
        assert result.reset_bits == int(resets.sum())
        assert result.latency > 0
        assert result.total_resets >= result.reset_bits

    def test_scheme_latency_consistent_with_maps(self, small_config):
        scheme = make_baseline(small_config)
        model = LineWriteModel(small_config, scheme)
        ir = get_ir_model(small_config)
        line_bits = small_config.memory.line_bytes * 8
        resets = np.zeros(line_bits, dtype=bool)
        resets[7] = True  # far group of MAT 0
        result = model.write(resets, np.zeros(line_bits, dtype=bool), row=0)
        # One far-group RESET: the write's RESET phase equals the map's
        # worst latency in that group (row 0), plus no SET phase.
        a = small_config.array.size
        group_cols = slice(7 * (a // 8), a)
        expected = ir.latency_map()[0, group_cols].max()
        assert result.latency == pytest.approx(expected, rel=1e-6)


class TestEndToEndSimulation:
    def test_full_stack_run_with_energy(self, paper_config):
        config = paper_config.with_cpu(l3_bytes_per_core=64 << 10)
        bench = scale_benchmark(get_benchmark("mix_2"), 512)
        scheme = make_udrvr_pr(config)
        sim = SystemSimulator(config, scheme, bench, accesses_per_core=1200, seed=9)
        result = sim.run()
        assert result.ipc > 0
        report = EnergyModel(config, scheme).report(
            result.stats, result.elapsed_s
        )
        assert report.total > 0
        assert report.leakage > 0

    def test_headline_claims_hold_together(self, paper_config):
        """The paper's abstract in one test: faster than the prior
        stack, cheaper, and still >10-year lifetime."""
        schemes = standard_schemes(paper_config)
        estimator = LifetimeEstimator(paper_config)
        ours = estimator.estimate(schemes["UDRVR+PR"])
        assert ours.years > 10

        from repro.analysis.overheads import chip_overheads

        ours_cost = chip_overheads(paper_config, schemes["UDRVR+PR"])
        prior_cost = chip_overheads(paper_config, schemes["Hard+Sys"])
        assert ours_cost.area_factor < prior_cost.area_factor

        from repro.techniques import SchemeLatencyModel

        ours_latency = SchemeLatencyModel(
            paper_config, schemes["UDRVR+PR"]
        ).worst_case_write_latency()
        base_latency = SchemeLatencyModel(
            paper_config, schemes["Base"]
        ).worst_case_write_latency()
        assert ours_latency < base_latency / 5
