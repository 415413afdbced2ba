"""``sim-write`` / ``sim-read``: Fig. 15 system-simulator cells.

Each cell is one (scheme, benchmark) ``SystemSimulator`` run at the
CLI's ``--quick`` sizing (2500 accesses per core after 4000 untimed
L3-warmup accesses per core), taken from a fresh ``PerformanceRunner``
with no result cache.  The workload seed is the simulator's trace seed.

Set-up is what a ``python -m repro fig15 --quick`` user pays before the
first cell: importing the package, building the runner (scheme
registry and its calibration solves), and the lazy latency-table
solves each scheme triggers the first time it runs.  The timed phase
then repeats passes over the cell set (see ``common.another_pass``).
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext
from dataclasses import replace

from .common import (
    SETUP_REPEATS,
    Outcome,
    clock,
    another_pass,
    import_trials,
    reset_program_state,
    self_peak_rss_mb,
)
from .hostspeed import HostSpeed, host_line, scale
from .metrics import layer_metrics, solver_metrics
from .stats import geomean, median, tail

SCHEMES = ("Base", "Hard+Sys", "UDRVR+PR", "ora-64x64")
BENCHMARKS = {
    "sim-write": ("mcf_m", "lbm_m", "mum_m"),
    "sim-read": ("tig_m", "mil_m"),
}
#: The CLI's ``--quick`` trace length.
ACCESSES_PER_CORE = 2500
#: Fig. 15: UDRVR+PR over Hard+Sys, geometric mean (paper value).
PAPER_FIG15 = 1.117


def cell_line(benchmark: str, scheme: str, result) -> str:
    """Every simulated statistic of one cell, exactly (floats by repr)."""
    stats = result.stats
    return (
        f"{benchmark} {scheme} ipc={result.ipc!r} "
        f"instructions={result.instructions} elapsed_s={result.elapsed_s!r} "
        f"reads={result.memory_reads} writes={result.memory_writes} "
        f"bursts={stats.write_bursts} pump_charges={stats.pump_charges} "
        f"write_phases={stats.write_phases} reset_bits={stats.reset_bits} "
        f"set_bits={stats.set_bits} extra_resets={stats.extra_resets} "
        f"extra_sets={stats.extra_sets} reset_energy_j={stats.reset_energy_j!r} "
        f"set_energy_j={stats.set_energy_j!r} "
        f"write_stall_s={stats.write_queue_stall_time!r} "
        f"l3_miss_rate={result.l3_miss_rate!r}"
    )


def run(args, tracer=None) -> Outcome:
    from repro import obs
    from repro.analysis.experiments import PerfSettings, PerformanceRunner
    from repro.engine import RunContext

    out = Outcome()
    benchmarks = BENCHMARKS[args.workload]
    settings = PerfSettings(
        accesses_per_core=ACCESSES_PER_CORE,
        seed=args.seed,
        benchmarks=benchmarks,
    )
    collector = obs.Collector() if tracer else None
    host = HostSpeed()
    host.sample(3)
    imports = import_trials()
    traced_start, spent_before = clock(), host.spent
    with obs.collecting(collector) if collector else nullcontext():
        builds = []
        for _ in range(SETUP_REPEATS):
            reset_program_state()
            start = clock()
            context = RunContext()
            PerformanceRunner(None, settings, context=context)
            builds.append(clock() - start)
        # One minimal cell per scheme runs the lazy latency-table solves
        # the first real cell of that scheme would otherwise pay.
        start = clock()
        primer = PerformanceRunner(
            None,
            replace(settings, accesses_per_core=1, warmup_accesses=0),
            context=context,
        )
        for scheme in SCHEMES:
            primer.run(scheme, benchmarks[0])
        prime_s = clock() - start
        setup_s = median(imports) + median(builds) + prime_s

        passes, cell_times, lines, anchors, cells0 = [], [], [], [], []
        accesses = 0
        first_pass: dict[tuple[str, str], str] = {}
        start_all = clock()
        while True:
            runner = PerformanceRunner(None, settings, context=context)
            pass_start = clock()
            reference_s = 0.0
            ipcs: dict[tuple[str, str], float] = {}
            pass_ops: list[str] = []
            for benchmark in benchmarks:
                results = {}
                for scheme in SCHEMES:
                    op = f"pass{len(passes)}/{benchmark}/{scheme}"
                    out.attempted += 1
                    reference_s += host.sample(2)
                    start = clock()
                    try:
                        result = runner.run(scheme, benchmark)
                    except Exception as exc:  # noqa: BLE001 - counted, reported
                        out.fail(op, f"{type(exc).__name__}: {exc}")
                        continue
                    cell_times.append(clock() - start)
                    results[scheme] = (op, result)
                    pass_ops.append(op)
                    accesses += ACCESSES_PER_CORE * len(result.per_core_ipc)
                    line = cell_line(benchmark, scheme, result)
                    reference = first_pass.setdefault((benchmark, scheme), line)
                    out.check(
                        line == reference, op, "statistics differ between passes"
                    )
                    if not passes:
                        lines.append(line)
                        cells0.append(result)
                    ipcs[(scheme, benchmark)] = result.ipc
                _check_benchmark(out, benchmark, results)
            passes.append(clock() - pass_start - reference_s)
            if all((s, b) in ipcs for s in SCHEMES for b in benchmarks):
                _check_order(out, pass_ops, ipcs, benchmarks)
                anchors.append(
                    geomean(
                        [
                            ipcs[("UDRVR+PR", b)] / ipcs[("Hard+Sys", b)]
                            for b in benchmarks
                        ]
                    )
                )
            if not another_pass(start_all, passes, args.seconds):
                break
    # The kernel timings are the benchmark's own, not traced work.
    wall_s = clock() - traced_start - (host.spent - spent_before)
    host.sample(3)

    slow = host.slowdown
    tail_s, tail_pct = tail(cell_times) if cell_times else (float("nan"), 0)
    raw = {
        "setup_s": setup_s,
        "run_s": median(passes),
        "ops_per_s": accesses / sum(passes),
        "op_p50_s": median(cell_times) if cell_times else float("nan"),
        "op_tail_s": tail_s,
    }
    scaled = scale(raw, slow)
    out.metrics = {
        **{name: scaled[name] for name in ("setup_s", "run_s", "ops_per_s")},
        "peak_rss_mb": self_peak_rss_mb(),
    }
    out.digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    ratio = anchors[0] if anchors else float("nan")
    # The paper's 1.117 is the write-bound average; sim-read only reports
    # its ratio (about 1.0: writes are too rare to matter).
    anchored = args.workload == "sim-write"
    anchor_err = abs(ratio - PAPER_FIG15) / PAPER_FIG15 if anchored else 0.0
    out.report += [
        f"set-up: import {median(imports):.3f} s (median of {len(imports)}), "
        f"runner {median(builds):.3f} s (median of {len(builds)}), "
        f"latency-table prime {prime_s:.3f} s",
        f"passes: {len(passes)} x {len(benchmarks) * len(SCHEMES)} cells, "
        f"pass seconds {[round(p, 3) for p in passes]}",
        host_line(host, raw),
        f"sim_accesses_per_s = {scaled['ops_per_s']:.1f} 1/s "
        f"(warm-up excluded, {accesses} accesses; "
        f"{raw['ops_per_s']:.1f} per host second)",
        f"cell_p50_s = {scaled['op_p50_s']:.4f} s, cell_tail_s = "
        f"{scaled['op_tail_s']:.4f} s (p{tail_pct:.0f} of {len(cell_times)})",
        f"udrvr_pr_over_hard_sys = {ratio!r} (simulated; paper {PAPER_FIG15})",
        f"fig15_anchor_err = {anchor_err:.4f} frac (simulated, exact for a seed)"
        if anchored
        else "fig15_anchor_err: not applicable (anchor is the write-bound mean)",
        *[f"cell {line}" for line in lines],
        f"cell digest sha256={out.digest}",
    ]
    if tracer:
        from .tracer import attribution, per_call_overhead_s

        out.attribution = attribution(tracer, wall_s)
        cost = per_call_overhead_s() * tracer.total_calls()
        out.layers = {
            **layer_metrics(tracer),
            **solver_metrics(collector.counters),
            "cpu.l3_miss_rate": sum(r.l3_miss_rate for r in cells0)
            / max(len(cells0), 1),
            "mem.write_bursts": sum(r.stats.write_bursts for r in cells0),
            "mem.write_queue_stall_s": sum(
                r.stats.write_queue_stall_time for r in cells0
            ),
            "sim.fig15_anchor_err": anchor_err,
            "obs.overhead_frac": cost / max(wall_s - cost, 1e-9),
            "trace.run_s": out.metrics["run_s"],
        }
    return out


def _check_benchmark(out: Outcome, benchmark: str, results: dict) -> None:
    """Cross-scheme check on one benchmark's cells of one pass."""
    if len(results) != len(SCHEMES):
        return  # the missing cell already counts as failed
    ops = [op for op, _ in results.values()]
    reads = {result.memory_reads for _, result in results.values()}
    out.check(
        len(reads) == 1, ops, f"{benchmark}: read counts differ across schemes"
    )


def _check_order(out: Outcome, ops: list[str], ipcs: dict, benchmarks) -> None:
    """Fig. 15 ordering: ora-64x64 >= UDRVR+PR >= Base in geomean IPC.

    The geomean over the workload's benchmarks is the quantity Fig. 15
    reports.  Single benchmarks can invert at this trace length (seed 2
    puts UDRVR+PR above ora-64x64 on mum_m), so those are reported as
    notes, not counted.
    """
    mean = {s: geomean([ipcs[(s, b)] for b in benchmarks]) for s in SCHEMES}
    out.check(
        mean["ora-64x64"] >= mean["UDRVR+PR"] >= mean["Base"],
        ops,
        f"geomean IPC order ora-64x64 >= UDRVR+PR >= Base violated {mean}",
    )
    for b in benchmarks:
        if not ipcs[("ora-64x64", b)] >= ipcs[("UDRVR+PR", b)] >= ipcs[("Base", b)]:
            note = f"note: {b} IPC order differs from geomean order: " + ", ".join(
                f"{s} {ipcs[(s, b)]!r}" for s in SCHEMES
            )
            if note not in out.report:  # later passes repeat it exactly
                out.report.append(note)
