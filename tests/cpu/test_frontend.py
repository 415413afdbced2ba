"""Front-end sharing: one recorded front end replays identically per scheme."""

import gc
import hashlib
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from repro import obs
from repro.analysis.experiments import PerfSettings, PerformanceRunner
from repro.cpu.frontend import L3_HIT, WRITE, WRITEBACK, FrontEnd
from repro.cpu.system import SystemSimulator
from repro.engine import RunContext
from repro.engine.executor import ParallelExecutor
from repro.mem.line_codec import LineWriteModel
from repro.techniques import make_dbl
from repro.techniques.stacks import standard_schemes
from repro.workloads import get_benchmark
from repro.workloads.benchmarks import scale_benchmark

SCALE = 512
SIZING = dict(accesses_per_core=1500, seed=3, warmup_accesses=1000)


@pytest.fixture(scope="module")
def config(paper_config):
    return paper_config.with_cpu(
        l3_bytes_per_core=paper_config.cpu.l3_bytes_per_core // SCALE
    )


@pytest.fixture(scope="module")
def bench():
    return scale_benchmark(get_benchmark("mcf_m"), SCALE)


@pytest.fixture(scope="module")
def schemes(config):
    registry = standard_schemes(config)
    chosen = {
        name: registry[name] for name in ("Base", "Hard+Sys", "UDRVR+PR", "ora-64x64")
    }
    chosen["D-BL"] = make_dbl(config)
    chosen["Base-maintenance-0.5"] = replace(
        registry["Base"], maintenance_write_rate=0.5
    )
    return chosen


@pytest.fixture(scope="module")
def frontend(config, bench):
    return FrontEnd.record(config, bench, **SIZING)


@pytest.fixture(scope="module")
def models(config, schemes):
    return {name: LineWriteModel(config, scheme) for name, scheme in schemes.items()}


def every_field(result) -> list[str]:
    """Every SimulationResult and ControllerStats field, floats by repr."""
    return [
        f"{f.name}={getattr(result, f.name)!r}"
        for f in fields(result)
        if f.name != "stats"
    ] + [f"{f.name}={getattr(result.stats, f.name)!r}" for f in fields(result.stats)]


def shared_cell(config, scheme, bench, frontend, model=None):
    return SystemSimulator(
        config,
        scheme,
        bench,
        **SIZING,
        frontend=frontend,
        write_model=model or LineWriteModel(config, scheme),
    ).run()


class TestRecording:
    def test_records_cover_the_measured_window(self, frontend, bench):
        assert len(frontend.cores) == bench.cores
        for core in frontend.cores:
            assert core.gaps.shape == core.kinds.shape == (1500,)
            writebacks = int(np.count_nonzero(core.kinds & WRITEBACK))
            assert core.victims.shape == (writebacks,)
            assert core.resets.shape == core.sets.shape == (writebacks, 64)
            assert core.resets.dtype == np.uint8
            # Only misses evict, and a hit is never a write-back source.
            hits = (core.kinds & L3_HIT) > 0
            assert not np.any(hits & ((core.kinds & WRITEBACK) > 0))
            # RESET and SET never flip the same cell.
            assert not np.any(core.resets & core.sets)
        assert np.any(np.concatenate([c.kinds for c in frontend.cores]) & WRITE)

    def test_miss_rate_counts_warmup(self, frontend, bench):
        # Every warm-up and measured access reached the L3 counters.
        assert frontend.l3_accesses == bench.cores * (1500 + 1000)
        assert 0.0 < frontend.l3_miss_rate < 1.0

    def test_record_is_deterministic(self, config, bench, frontend):
        again = FrontEnd.record(config, bench, **SIZING)
        for a, b in zip(frontend.cores, again.cores):
            for name in ("gaps", "addresses", "kinds", "victims", "resets", "sets"):
                assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_mismatched_front_end_rejected(self, config, bench, frontend, schemes):
        with pytest.raises(ValueError, match="front end"):
            SystemSimulator(
                config,
                schemes["Base"],
                bench,
                accesses_per_core=1500,
                seed=4,
                warmup_accesses=1000,
                frontend=frontend,
            )

    def test_foreign_write_model_rejected(
        self, config, bench, frontend, schemes, models
    ):
        with pytest.raises(ValueError, match="write model"):
            shared_cell(config, schemes["UDRVR+PR"], bench, frontend, models["Base"])


class TestSharedEqualsPrivate:
    @pytest.mark.parametrize(
        "name",
        ["Base", "Hard+Sys", "UDRVR+PR", "ora-64x64", "D-BL", "Base-maintenance-0.5"],
    )
    def test_cell_identical(self, config, bench, frontend, schemes, models, name):
        scheme, model = schemes[name], models[name]
        private = SystemSimulator(
            config, scheme, bench, **SIZING, write_model=model
        ).run()
        shared = shared_cell(config, scheme, bench, frontend, model)
        assert every_field(shared) == every_field(private)

    def test_integer_statistics_pinned(self, config, bench, frontend, schemes, models):
        """Values recorded with the per-access simulator this replaced."""
        result = shared_cell(
            config, schemes["UDRVR+PR"], bench, frontend, models["UDRVR+PR"]
        )
        stats = result.stats
        assert result.instructions == 1459939
        assert (stats.reads, stats.writes) == (2155, 360)
        assert stats.write_bursts == 3
        assert stats.write_phases == 360
        assert (stats.reset_bits, stats.extra_resets) == (8047, 5455)


#: sha256 of ``every_field`` per shared cell, recorded with the
#: dict-keyed controller and stamp-LRU L3 the flat replay replaced.
#: Re-recorded once when ``batched`` took banded Newton steps: float
#: fields moved in their last bits, integer statistics did not.
GOLDEN = {
    "Base": "8a534125289fe8712de7b6c5243f45490abdeaa1a2c92e8cf6f38572d7462876",
    "Hard+Sys": "fea4c6a68d910ed172faf357bf56785d0ff735245e23aa04824f04b983fe2f33",
    "UDRVR+PR": "80cc30e55cea3d68d3655bfaad9206899154dc1c291307e527922f2ec49deb9a",
    "ora-64x64": "4b099afd4af0d99320b10f9408a0d52febf26b90db7ebd704a68d085c7469ce1",
    "D-BL": "7ae8dce2fa3eb9b3603b0630e7324aa77f0ac9d15d8fa1ea13d131121bc83571",
    "Base-maintenance-0.5": "66e27904b82bd19a5bca9851713ba525110a56bd73e765ecade62cbbed58181a",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_every_field_pinned(config, bench, frontend, schemes, models, name):
    result = shared_cell(config, schemes[name], bench, frontend, models[name])
    digest = hashlib.sha256("\n".join(every_field(result)).encode()).hexdigest()
    assert digest == GOLDEN[name]


@pytest.mark.parametrize("name", ["Hard+Sys", "Base-maintenance-0.5"])
def test_finished_simulator_is_freed(config, bench, frontend, schemes, models, name):
    """No reference cycle keeps a run simulator alive past its last reference."""
    gc.disable()
    try:
        simulator = SystemSimulator(
            config,
            schemes[name],
            bench,
            **SIZING,
            frontend=frontend,
            write_model=models[name],
        )
        alive = [weakref.ref(simulator), weakref.ref(simulator.controller)]
        result = simulator.run()
        del simulator
        assert [ref() for ref in alive] == [None, None]
        assert result.memory_reads > 0
    finally:
        gc.enable()


class TestRunnerSharing:
    SETTINGS = PerfSettings(
        scale=SCALE,
        accesses_per_core=600,
        warmup_accesses=300,
        seed=5,
        benchmarks=("mcf_m", "lbm_m"),
    )
    NAMES = ("Base", "UDRVR+PR")

    def cells(self, context):
        runner = PerformanceRunner(settings=self.SETTINGS, context=context)
        runner.prefetch(self.NAMES)
        return {
            (name, benchmark): every_field(runner.run(name, benchmark))
            for benchmark in self.SETTINGS.benchmarks
            for name in self.NAMES
        }

    def test_parallel_cells_equal_serial(self):
        serial = self.cells(RunContext())
        parallel = self.cells(RunContext(executor=ParallelExecutor(2)))
        assert parallel == serial

    def test_each_front_end_recorded_once_per_process(self):
        """A second runner, on its own context, records nothing."""

        def misses():
            collector = obs.Collector()
            with obs.collecting(collector):
                PerformanceRunner(
                    settings=self.SETTINGS, context=RunContext()
                ).prefetch(self.NAMES)
            return collector.counters.get("frontend.miss", 0)

        assert misses() == len(self.SETTINGS.benchmarks)
        assert misses() == 0
