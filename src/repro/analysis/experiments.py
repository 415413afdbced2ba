"""One driver per paper figure/table (the per-experiment index of
DESIGN.md).

Every ``figXX`` function returns a plain dictionary with the same
rows/series the paper reports and registers itself with the experiment
engine (:mod:`repro.engine.registry`), declaring whether it is
simulation-backed, which Table IV workloads it consumes, and its
payload schema.  The benchmark harness under ``benchmarks/`` renders
the payloads with :mod:`repro.analysis.report` and records
paper-vs-measured numbers in EXPERIMENTS.md.

Simulation-backed figures share a :class:`PerformanceRunner`, which
fans the independent (scheme, benchmark) cells out through the run
context's executor, memoises them in memory, and — when the context
carries a disk cache — shares them across invocations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..circuit.wire import wire_resistance_table
from ..config import SelectorParams, SystemConfig, config_hash, default_config
from ..cpu.frontend import recorded
from ..cpu.system import SimulationResult, SystemSimulator
from ..engine.cache import MISSING, cache_key
from ..engine.context import RunContext
from ..engine.registry import experiment
from ..mem.energy import EnergyModel
from ..mem.lifetime import LifetimeEstimator
from ..mem.line_codec import write_model
from ..techniques import (
    Scheme,
    SchemeLatencyModel,
    make_drvr,
    make_naive_high_voltage,
)
from ..techniques.partition_reset import PartitionResetPartitioner
from ..techniques.dummy_bl import DummyBitlinePartitioner
from ..workloads import benchmark_suite
from ..workloads.benchmarks import BenchmarkSpec, scale_benchmark
from ..workloads.datapatterns import WritePatternGenerator
from .maps import block_reduce, summarise_map
from .overheads import chip_overheads

__all__ = [
    "PerfSettings",
    "PerformanceRunner",
    "fig01e",
    "fig04",
    "fig05b",
    "fig05c",
    "fig05d",
    "fig06",
    "fig07b",
    "fig09",
    "fig11a",
    "fig11",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "fig20",
    "table_parameters",
    "table_benchmarks",
]

#: Every Table IV workload name (the full simulation suite).
TABLE_IV = tuple(benchmark_suite())

#: Representative heavy/medium/light subset the sweep figures use.
SWEEP_SUBSET = ("mcf_m", "lbm_m", "mum_m")

#: Top-level keys of a ``_maps_payload`` figure.
_MAP_KEYS = (
    "v_eff",
    "latency",
    "endurance",
    "v_eff_blocks",
    "latency_blocks",
    "endurance_blocks",
)


def _resolve(
    config: SystemConfig | None, context: RunContext | None
) -> tuple[SystemConfig, RunContext]:
    """The (config, context) pair a driver actually runs with."""
    if context is None:
        context = RunContext(config=config or default_config())
    return config or context.config, context


# ---------------------------------------------------------------------------
# shared performance machinery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerfSettings:
    """Simulation sizing shared by the performance figures.

    ``scale`` shrinks the DRAM L3 and every working set together (see
    ``scale_benchmark``); ``accesses_per_core`` bounds the trace length.
    The defaults trade a few percent of run-to-run noise for minutes of
    runtime.
    """

    scale: int = 256
    accesses_per_core: int = 8000
    warmup_accesses: int = 4000  # L3 warmup records per core (untimed)
    seed: int = 3
    benchmarks: tuple[str, ...] | None = None  # None -> the full Table IV suite

    @property
    def sizing(self) -> tuple:
        """The fields a single (scheme, benchmark) cell depends on.

        ``benchmarks`` selects *which* cells a figure runs, not how any
        one cell behaves, so it is excluded — a subset run and a
        full-suite run share cached cells.
        """
        return (self.scale, self.accesses_per_core, self.warmup_accesses, self.seed)


@dataclass(frozen=True)
class _PerfTask:
    """One executor task: replay a benchmark's front end under a scheme.

    It carries recipes, not arrays or tables: the task takes the front
    end and the write model from its process's registries inside the
    task's observability scope, so ``--profile`` counts a worker's
    lookups.
    """

    config: SystemConfig
    scheme: Scheme
    solver: str | None  # the tables' calibration solver (the context's)
    benchmark: BenchmarkSpec
    accesses_per_core: int
    seed: int
    warmup_accesses: int


def _run_cell(task: _PerfTask) -> SimulationResult:
    """Simulate one cell (top-level so it pickles to pool workers)."""
    simulator = SystemSimulator(
        task.config,
        task.scheme,
        task.benchmark,
        accesses_per_core=task.accesses_per_core,
        seed=task.seed,
        warmup_accesses=task.warmup_accesses,
        write_model=write_model(task.config, task.scheme, task.solver),
    )
    return simulator.run()


class PerformanceRunner:
    """(scheme, benchmark) simulation cells for one configuration.

    Cells are independent, so :meth:`prefetch` fans missing ones out
    through the context's executor (serial by default, a process pool
    with ``--workers N``) with deterministic result ordering, then
    memoises them in memory and — when the context carries a result
    cache — on disk, keyed by (config hash, sizing, scheme, benchmark,
    solver, code version).

    A benchmark's recorded :class:`~repro.cpu.frontend.FrontEnd` and a
    scheme's :class:`~repro.mem.line_codec.LineWriteModel` both come
    from process registries (:func:`~repro.cpu.frontend.recorded`,
    :func:`~repro.mem.line_codec.write_model`), so the runners, figures
    and sweep variants of one process record and build each once.  A
    task carries their recipes and takes both inside its own
    observability scope; :meth:`prefetch` takes them first, so pool
    workers forked by its one ``map`` find them in the registries they
    inherit.
    """

    def __init__(
        self,
        config: SystemConfig | None = None,
        settings: PerfSettings = PerfSettings(),
        context: RunContext | None = None,
    ) -> None:
        self.context = context or RunContext(config=config)
        base = config or self.context.config
        self.settings = settings
        self.config = base.with_cpu(
            l3_bytes_per_core=max(
                64 << 10, base.cpu.l3_bytes_per_core // settings.scale
            )
        )
        self.schemes = self.context.schemes(self.config)
        self._suite = {
            name: scale_benchmark(spec, settings.scale)
            for name, spec in benchmark_suite().items()
        }
        self._cache: dict[tuple[str, str], SimulationResult] = {}

    @property
    def benchmark_names(self) -> tuple[str, ...]:
        if self.settings.benchmarks is not None:
            return self.settings.benchmarks
        return tuple(self._suite)

    def scheme(self, name: str) -> Scheme:
        if name not in self.schemes:
            raise KeyError(f"unknown scheme {name!r}")
        return self.schemes[name]

    def _cell_key(self, scheme_name: str, benchmark: str) -> str:
        return cache_key(
            "cell",
            config_hash(self.config),
            self.settings.sizing,
            scheme_name,
            benchmark,
            self.context.solver,
        )

    def prefetch(
        self,
        scheme_names: tuple[str, ...],
        benchmarks: tuple[str, ...] | None = None,
    ) -> None:
        """Materialise every missing (scheme, benchmark) cell at once.

        The missing cells' front ends are recorded and their write
        models built here, then every cell runs in one executor ``map``
        (one process pool under ``--workers N``).
        """
        for name in scheme_names:
            self.scheme(name)  # validate early, before fan-out
        cells = [
            (scheme, benchmark)
            for benchmark in (benchmarks or self.benchmark_names)
            for scheme in scheme_names
            if (scheme, benchmark) not in self._cache
        ]
        disk = self.context.cache
        missing = []
        for cell in cells:
            value = disk.load(self._cell_key(*cell))
            if value is MISSING:
                missing.append(cell)
            else:
                self._cache[cell] = value
        if not missing:
            return
        settings = self.settings
        trace = (
            settings.accesses_per_core,
            settings.seed,
            settings.warmup_accesses,
        )
        # Taken here, before the executor starts a pool: forked workers
        # inherit both registries, so their tasks' lookups hit.
        for benchmark in dict.fromkeys(benchmark for _, benchmark in missing):
            recorded(self.config, self._suite[benchmark], *trace)
        for name in dict.fromkeys(name for name, _ in missing):
            write_model(*self._recipe(name))
        tasks = [
            _PerfTask(*self._recipe(name), self._suite[benchmark], *trace)
            for name, benchmark in missing
        ]
        results = self.context.executor.map(_run_cell, tasks)
        for cell, result in zip(missing, results):
            if result.error is not None:
                # Partial-result mode: the cell stays missing, the
                # structured failure record rides out on the context
                # (strict executors raised before we got here).
                self.context.note_task_error(result.error)
                continue
            self.context.note_retries(result.attempts - 1)
            self._cache[cell] = result.value
            self.context.cache.store(self._cell_key(*cell), result.value)

    def _recipe(self, scheme_name: str) -> tuple[SystemConfig, Scheme, str | None]:
        """The ``write_model`` arguments of a scheme's cells.

        Scheme levels and latency tables are both calibrated on the
        context's solver, which the cell's cache key names.
        """
        return self.config, self.scheme(scheme_name), self.context.solver

    def run(self, scheme_name: str, benchmark: str) -> SimulationResult:
        key = (scheme_name, benchmark)
        if key not in self._cache:
            self.prefetch((scheme_name,), (benchmark,))
        try:
            return self._cache[key]
        except KeyError:
            raise RuntimeError(
                f"simulation cell ({scheme_name}, {benchmark}) failed after "
                "retries; see the run's task error records"
            ) from None

    def completed(self, scheme_names: tuple[str, ...]) -> tuple[str, ...]:
        """Benchmarks whose every requested cell survived, input order.

        Figures iterate this after a :meth:`prefetch` so a failed cell
        drops its benchmark from the payload instead of crashing the
        whole figure (the failure itself is recorded on the context).
        """
        return tuple(
            benchmark
            for benchmark in self.benchmark_names
            if all((name, benchmark) in self._cache for name in scheme_names)
        )

    def speedups(
        self, scheme_names: tuple[str, ...], normalise_to: str
    ) -> dict[str, dict[str, float]]:
        """Per-benchmark IPC ratios against ``normalise_to``."""
        names = tuple(dict.fromkeys((*scheme_names, normalise_to)))
        self.prefetch(names)
        table: dict[str, dict[str, float]] = {}
        for benchmark in self.completed(names):
            reference = self.run(normalise_to, benchmark).ipc
            table[benchmark] = {
                name: self.run(name, benchmark).ipc / reference
                for name in scheme_names
            }
        return table


def _geomean(values) -> float:
    values = np.asarray(list(values), dtype=float)
    return float(np.exp(np.log(values).mean()))


# ---------------------------------------------------------------------------
# circuit- and array-level figures
# ---------------------------------------------------------------------------


@experiment(output_keys=("series", "reference"))
def fig01e(
    config: SystemConfig | None = None, context: RunContext | None = None
) -> dict:
    """Fig. 1e: wire resistance per junction vs technology node."""
    table = wire_resistance_table()
    return {
        "series": sorted(table.items(), reverse=True),
        "reference": ("20 nm", 11.5),
    }


def _maps_payload(
    context: RunContext, config: SystemConfig, v_applied, n_bits: int
) -> dict:
    model = context.ir_model(config)
    v_eff, latency, endurance = model.cell_maps(v_applied, n_bits=n_bits)
    return {
        "v_eff": summarise_map(v_eff),
        "latency": summarise_map(latency),
        "endurance": summarise_map(endurance),
        "v_eff_blocks": block_reduce(v_eff, reduce="min"),
        "latency_blocks": block_reduce(latency, reduce="max"),
        "endurance_blocks": block_reduce(endurance, reduce="min"),
    }


@experiment(output_keys=_MAP_KEYS)
def fig04(
    config: SystemConfig | None = None, context: RunContext | None = None
) -> dict:
    """Fig. 4b/c/d: baseline effective Vrst / latency / endurance maps.

    Paper anchors: 1.7 V worst-corner effective Vrst, 2.3 us array RESET
    latency, 5e6-write minimum endurance, >1e12 at the top-right corner.
    """
    config, context = _resolve(config, context)
    return _maps_payload(context, config, config.cell.v_reset, n_bits=1)


@experiment(output_keys=("reports",))
def fig05b(
    config: SystemConfig | None = None, context: RunContext | None = None
) -> dict:
    """Fig. 5b: main-memory lifetime comparison under non-stop writes."""
    config, context = _resolve(config, context)
    estimator = LifetimeEstimator(config, context=context)
    schemes = context.schemes(config)
    order = ["Base", "Hard+Sys", "Static-3.7V", "DRVR", "DRVR+PR", "UDRVR+PR"]
    return {"reports": [estimator.estimate(schemes[name]) for name in order]}


@experiment(
    simulation=True,
    workloads=TABLE_IV,
    output_keys=("per_benchmark", "geomean"),
)
def fig05c(
    config: SystemConfig | None = None,
    settings: PerfSettings = PerfSettings(),
    runner: PerformanceRunner | None = None,
    context: RunContext | None = None,
) -> dict:
    """Fig. 5c: prior designs' performance vs the oracles."""
    runner = runner or PerformanceRunner(config, settings, context=context)
    names = ("Base", "Hard", "Hard+Sys", "ora-256x256", "ora-128x128")
    table = runner.speedups(names, normalise_to="ora-64x64")
    means = {
        name: _geomean(row[name] for row in table.values()) for name in names
    }
    return {"per_benchmark": table, "geomean": means}


@experiment(output_keys=("reports",))
def fig05d(
    config: SystemConfig | None = None, context: RunContext | None = None
) -> dict:
    """Fig. 5d: hardware overheads normalised to the baseline chip."""
    config, context = _resolve(config, context)
    schemes = context.schemes(config)
    order = ["Base", "Hard", "Hard+Sys", "DRVR", "UDRVR+PR"]
    return {"reports": [chip_overheads(config, schemes[n]) for n in order]}


@experiment(output_keys=("naive", "drvr"))
def fig06(
    config: SystemConfig | None = None, context: RunContext | None = None
) -> dict:
    """Fig. 6: naive 3.7 V over-RESET and the DRVR maps.

    Paper anchors: 1.5K-5K writes at the bottom-left under a static
    3.7 V; with DRVR all cells of a BL share ~the same effective Vrst
    while the bottom-left keeps its 5e6-write endurance.
    """
    config, context = _resolve(config, context)
    model = context.ir_model(config)
    naive = make_naive_high_voltage(config)
    drvr = make_drvr(config, model=context.nominal_ir_model(config))
    return {
        "naive": _maps_payload(
            context, config, naive.regulator.matrix(model), n_bits=1
        ),
        "drvr": _maps_payload(
            context, config, drvr.regulator.matrix(model), n_bits=1
        ),
    }


@experiment(
    output_keys=(
        "static_profile",
        "drvr_profile",
        "static_delta",
        "drvr_intra_section_delta",
    )
)
def fig07b(
    config: SystemConfig | None = None, context: RunContext | None = None
) -> dict:
    """Fig. 7b: effective Vrst along the left-most BL, with/without DRVR.

    Paper anchors: ~0.66 V near/far difference without DRVR; <0.1 V
    within each section with 8 levels.
    """
    config, context = _resolve(config, context)
    model = context.ir_model(config)
    a = config.array.size
    static = model.v_eff_map(config.cell.v_reset)[:, 0]
    drvr = make_drvr(config, model=context.nominal_ir_model(config))
    regulated = model.v_eff_map(drvr.regulator.matrix(model))[:, 0]
    sections = config.array.drvr_sections
    rows = a // sections
    intra = max(
        float(np.ptp(regulated[s * rows : (s + 1) * rows]))
        for s in range(sections)
    )
    return {
        "static_profile": static,
        "drvr_profile": regulated,
        "static_delta": float(static[0] - static[-1]),
        "drvr_intra_section_delta": intra,
    }


# ---------------------------------------------------------------------------
# write-path figures
# ---------------------------------------------------------------------------


@experiment(workloads=TABLE_IV, output_keys=("histograms",))
def fig09(
    config: SystemConfig | None = None,
    writes: int = 2000,
    context: RunContext | None = None,
) -> dict:
    """Fig. 9: RESET-bit count distribution of 64B writes per 8-bit MAT.

    Paper anchors: most MATs see no RESET in a write; 1-3-bit RESETs
    appear in almost every write; 7/8-bit RESETs are rare except for
    xalancbmk.
    """
    config, context = _resolve(config, context)
    width = config.array.data_width
    line_bits = config.memory.line_bytes * 8
    mats = line_bits // width
    histograms: dict[str, np.ndarray] = {}
    for name, spec in benchmark_suite().items():
        generator = WritePatternGenerator(
            spec.patterns[0], line_bits=line_bits, seed=context.seed_for(17)
        )
        resets, _sets = generator.masks_many(writes)
        per_mat = resets.reshape(writes * mats, width).sum(axis=1)
        counts = np.bincount(per_mat, minlength=width + 1).astype(float)
        histograms[name] = counts / counts.sum()
    return {"histograms": histograms}


@experiment(output_keys=("series", "optimal_bits"))
def fig11a(
    config: SystemConfig | None = None, context: RunContext | None = None
) -> dict:
    """Fig. 11a: worst-cell effective Vrst under N-bit RESETs.

    Paper anchor: improves up to ~4 concurrent RESETs, degrades beyond.
    """
    config, context = _resolve(config, context)
    model = context.ir_model(config)
    a = config.array.size
    series = [
        (n, model.v_eff(a - 1, a - 1, n_bits=n))
        for n in range(1, config.array.data_width + 1)
    ]
    best = max(series, key=lambda item: item[1])[0]
    return {"series": series, "optimal_bits": best}


@experiment(output_keys=("n_bits", *_MAP_KEYS))
def fig11(
    config: SystemConfig | None = None, context: RunContext | None = None
) -> dict:
    """Fig. 11b/c/d: DRVR + PR maps at the partition optimum."""
    config, context = _resolve(config, context)
    model = context.ir_model(config)
    drvr = make_drvr(config, model=context.nominal_ir_model(config))
    n = model.wl_model.optimal_bits()
    return {
        "n_bits": n,
        **_maps_payload(context, config, drvr.regulator.matrix(model), n_bits=n),
    }


@experiment(output_keys=(*_MAP_KEYS, "worst_case_write_latency"))
def fig13(
    config: SystemConfig | None = None, context: RunContext | None = None
) -> dict:
    """Fig. 13: UDRVR+PR latency and endurance maps.

    Paper anchors: ~71 ns array RESET latency; left-most-BL endurance
    lifted to ~6.7e7 writes.
    """
    config, context = _resolve(config, context)
    from ..techniques.udrvr import make_udrvr_pr

    scheme = make_udrvr_pr(config, model=context.nominal_ir_model(config))
    model = context.ir_model(config)
    n = model.wl_model.optimal_bits()
    payload = _maps_payload(
        context, config, scheme.regulator.matrix(model), n_bits=n
    )
    latency_model = SchemeLatencyModel(config, scheme, context=context)
    payload["worst_case_write_latency"] = latency_model.worst_case_write_latency()
    return payload


@experiment(workloads=TABLE_IV, output_keys=("per_benchmark", "mean"))
def fig14(
    config: SystemConfig | None = None,
    writes: int = 1500,
    context: RunContext | None = None,
) -> dict:
    """Fig. 14: extra writes caused by PR (and D-BL) over Flip-N-Write.

    Paper anchors: PR +54% RESETs / +48% SETs / +50.7% writes, 14.3% of
    cells written; D-BL +235% RESETs / +108% writes, ~20% cells.
    """
    config, context = _resolve(config, context)
    width = config.array.data_width
    line_bits = config.memory.line_bytes * 8
    pr = PartitionResetPartitioner()
    dbl = DummyBitlinePartitioner()
    rows: dict[str, dict[str, float]] = {}
    for name, spec in benchmark_suite().items():
        generator = WritePatternGenerator(
            spec.patterns[0], line_bits=line_bits, seed=context.seed_for(29)
        )
        resets, sets = generator.masks_many(writes)
        # One row per MAT slice of every write; an idle slice plans nothing.
        resets, sets = resets.reshape(-1, width), sets.reshape(-1, width)
        base_resets, base_sets = int(resets.sum()), int(sets.sum())
        plans = pr.plan_many(resets, sets)
        pr_resets, pr_sets = int(plans.resets.sum()), int(plans.sets.sum())
        plans = dbl.plan_many(resets, sets)
        dbl_resets, dbl_sets = int(plans.resets.sum()), int(plans.sets.sum())
        rows[name] = {
            "base_cells": (base_resets + base_sets) / (writes * line_bits),
            "pr_reset_increase": pr_resets / max(1, base_resets) - 1.0,
            "pr_set_increase": pr_sets / max(1, base_sets) - 1.0,
            "pr_write_increase": (pr_resets + pr_sets)
            / max(1, base_resets + base_sets)
            - 1.0,
            "pr_cells": (pr_resets + pr_sets) / (writes * line_bits),
            "dbl_reset_increase": dbl_resets / max(1, base_resets) - 1.0,
            "dbl_write_increase": (dbl_resets + dbl_sets)
            / max(1, base_resets + base_sets)
            - 1.0,
            "dbl_cells": (dbl_resets + dbl_sets) / (writes * line_bits),
        }
    means = {
        key: float(np.mean([row[key] for row in rows.values()]))
        for key in next(iter(rows.values()))
    }
    return {"per_benchmark": rows, "mean": means}


# ---------------------------------------------------------------------------
# system-level figures
# ---------------------------------------------------------------------------


@experiment(
    simulation=True,
    workloads=TABLE_IV,
    output_keys=("per_benchmark", "geomean", "udrvr_pr_over_hard_sys"),
)
def fig15(
    config: SystemConfig | None = None,
    settings: PerfSettings = PerfSettings(),
    runner: PerformanceRunner | None = None,
    context: RunContext | None = None,
) -> dict:
    """Fig. 15: overall performance of every scheme vs ora-64x64.

    Paper anchor: UDRVR+PR beats Hard+Sys by 11.7% on average and
    reaches ~90% of ora-64x64.
    """
    runner = runner or PerformanceRunner(config, settings, context=context)
    names = (
        "Base",
        "Hard",
        "Hard+Sys",
        "DRVR",
        "UDRVR+PR",
        "ora-256x256",
        "ora-128x128",
    )
    table = runner.speedups(names, normalise_to="ora-64x64")
    means = {
        name: _geomean(row[name] for row in table.values()) for name in names
    }
    improvement = _geomean(
        row["UDRVR+PR"] / row["Hard+Sys"] for row in table.values()
    )
    return {
        "per_benchmark": table,
        "geomean": means,
        "udrvr_pr_over_hard_sys": improvement,
    }


@experiment(
    simulation=True,
    workloads=TABLE_IV,
    output_keys=("per_benchmark", "udrvr_pr_mean_normalised"),
)
def fig16(
    config: SystemConfig | None = None,
    settings: PerfSettings = PerfSettings(),
    runner: PerformanceRunner | None = None,
    context: RunContext | None = None,
) -> dict:
    """Fig. 16: main-memory energy, normalised to Hard+Sys.

    Paper anchor: UDRVR+PR consumes ~46% less energy than Hard+Sys,
    mostly by avoiding the hardware baselines' peripheral leakage.
    """
    runner = runner or PerformanceRunner(config, settings, context=context)
    names = ("Hard+Sys", "DRVR", "UDRVR+PR")
    runner.prefetch(names)
    rows: dict[str, dict[str, dict[str, float]]] = {}
    for benchmark in runner.completed(names):
        per_scheme = {}
        for name in names:
            result = runner.run(name, benchmark)
            model = EnergyModel(runner.config, runner.scheme(name))
            report = model.report(result.stats, result.elapsed_s)
            per_scheme[name] = {
                "read": report.read,
                "write": report.write,
                "pump": report.pump,
                "leakage": report.leakage,
                "total": report.total,
            }
        reference = per_scheme["Hard+Sys"]["total"]
        for data in per_scheme.values():
            data["normalised"] = data["total"] / reference
        rows[benchmark] = per_scheme
    mean = _geomean(
        rows[b]["UDRVR+PR"]["normalised"] for b in rows
    )
    return {"per_benchmark": rows, "udrvr_pr_mean_normalised": mean}


@experiment(
    simulation=True,
    workloads=TABLE_IV,
    output_keys=("per_benchmark", "udrvr_pr_over_394", "udrvr_pr_energy_vs_394"),
)
def fig17(
    config: SystemConfig | None = None,
    settings: PerfSettings = PerfSettings(),
    runner: PerformanceRunner | None = None,
    context: RunContext | None = None,
) -> dict:
    """Fig. 17: UDRVR-3.94 vs UDRVR+PR, normalised to Hard+Sys."""
    runner = runner or PerformanceRunner(config, settings, context=context)
    table = runner.speedups(("UDRVR-3.94", "UDRVR+PR"), normalise_to="Hard+Sys")
    improvement = _geomean(
        row["UDRVR+PR"] / row["UDRVR-3.94"] for row in table.values()
    )
    # The 3.94 V pump also costs energy: an extra boost stage on top of
    # UDRVR's, more leakage, and more charge energy per write.
    energy_ratios = []
    for benchmark in runner.completed(("UDRVR-3.94", "UDRVR+PR")):
        totals = {}
        for name in ("UDRVR-3.94", "UDRVR+PR"):
            result = runner.run(name, benchmark)
            report = EnergyModel(runner.config, runner.scheme(name)).report(
                result.stats, result.elapsed_s
            )
            totals[name] = report.total
        energy_ratios.append(totals["UDRVR+PR"] / totals["UDRVR-3.94"])
    return {
        "per_benchmark": table,
        "udrvr_pr_over_394": improvement,
        "udrvr_pr_energy_vs_394": _geomean(energy_ratios),
    }


def _sweep(
    configs: dict[str, SystemConfig],
    settings: PerfSettings,
    context: RunContext | None = None,
) -> dict[str, dict[str, float]]:
    """UDRVR+PR speedup over Hard+Sys and over Base per config variant.

    The Hard+Sys ratio is the paper's metric; the Base ratio isolates
    the voltage-drop trend itself (our Hard+Sys model carries a constant
    maintenance-write handicap that flattens the sweeps; EXPERIMENTS.md
    discusses the deviation).
    """
    outcome = {}
    for label, config in configs.items():
        runner = PerformanceRunner(config, settings, context=context)
        table = runner.speedups(("UDRVR+PR", "Base"), normalise_to="Hard+Sys")
        outcome[label] = {
            "vs_hard_sys": _geomean(
                row["UDRVR+PR"] for row in table.values()
            ),
            "vs_base": _geomean(
                row["UDRVR+PR"] / row["Base"] for row in table.values()
            ),
        }
    return outcome


@experiment(simulation=True, workloads=SWEEP_SUBSET, output_keys=("improvement",))
def fig18(
    config: SystemConfig | None = None,
    settings: PerfSettings = PerfSettings(benchmarks=SWEEP_SUBSET),
    context: RunContext | None = None,
) -> dict:
    """Fig. 18: UDRVR+PR improvement for 256/512/1K arrays.

    Paper anchor: +6.7% / +11.7% / +18.2% — larger arrays suffer more
    drop, so the techniques matter more.
    """
    base, context = _resolve(config, context)
    variants = {
        "256x256": base.with_array(size=256),
        "512x512": base,
        "1Kx1K": base.with_array(size=1024),
    }
    return {"improvement": _sweep(variants, settings, context)}


@experiment(simulation=True, workloads=SWEEP_SUBSET, output_keys=("improvement",))
def fig19(
    config: SystemConfig | None = None,
    settings: PerfSettings = PerfSettings(benchmarks=SWEEP_SUBSET),
    context: RunContext | None = None,
) -> dict:
    """Fig. 19: improvement vs wire resistance (32 / 20 / 10 nm).

    Paper anchor: +1.4% / +11.7% / +18.3% — thinner wires, more drop.
    """
    from ..circuit.wire import wire_resistance

    base, context = _resolve(config, context)
    variants = {
        f"{node:g}nm": base.with_array(
            tech_node_nm=node, r_wire=wire_resistance(node)
        )
        for node in (32.0, 20.0, 10.0)
    }
    return {"improvement": _sweep(variants, settings, context)}


@experiment(simulation=True, workloads=SWEEP_SUBSET, output_keys=("improvement",))
def fig20(
    config: SystemConfig | None = None,
    settings: PerfSettings = PerfSettings(benchmarks=SWEEP_SUBSET),
    context: RunContext | None = None,
) -> dict:
    """Fig. 20: improvement vs selector ON/OFF ratio (0.5K / 1K / 2K).

    Paper anchor: +18.9% / +11.7% / +5.8% — leakier selectors, more
    sneak, more to mitigate.
    """
    base, context = _resolve(config, context)
    variants = {
        f"Kr={int(kr)}": base.with_array(selector=SelectorParams(kr=kr))
        for kr in (500.0, 1000.0, 2000.0)
    }
    return {"improvement": _sweep(variants, settings, context)}


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


@experiment(output_keys=("cell", "array", "pump", "memory", "cpu"))
def table_parameters(
    config: SystemConfig | None = None, context: RunContext | None = None
) -> dict:
    """Tables I and III: the model parameters in force."""
    config, _ = _resolve(config, context)
    return {
        "cell": config.cell,
        "array": config.array,
        "pump": config.pump,
        "memory": config.memory,
        "cpu": config.cpu,
    }


@experiment(workloads=TABLE_IV, output_keys=("rows",))
def table_benchmarks(
    config: SystemConfig | None = None,
    samples: int = 4000,
    context: RunContext | None = None,
) -> dict:
    """Table IV: generated RPKI/WPKI vs the published targets."""
    from ..workloads.synthetic import SyntheticStream

    _, context = _resolve(config, context)
    rows = {}
    for name, spec in benchmark_suite().items():
        target_rpki = float(np.mean([s.rpki for s in spec.streams]))
        target_wpki = float(np.mean([s.wpki for s in spec.streams]))
        stream = SyntheticStream(spec.streams[0], seed=context.seed_for(5))
        trace = stream.take(samples)
        rows[name] = {
            "target_rpki": target_rpki,
            "target_wpki": target_wpki,
            "measured_rpki": trace.rpki(),
            "measured_wpki": trace.wpki(),
            "description": spec.description,
        }
    return {"rows": rows}
