"""Command-line entry point: regenerate any paper figure or table.

Usage::

    python -m repro list                 # available experiments
    python -m repro fig04                # baseline array maps
    python -m repro fig15 --quick        # fast, reduced-size simulation
    python -m repro fig15 --quick --workers 4   # fan cells out over 4 cores
    python -m repro fig15 --benchmarks mcf_m xal_m
    python -m repro serve --port 7327    # long-lived JSON-over-TCP service
    python -m repro sweep query STORE    # columnar sweep-store front door

Simulation-backed figures accept ``--quick`` (smaller traces),
``--benchmarks`` (a subset of Table IV) and ``--workers`` (parallel
(scheme, benchmark) cells); circuit-level figures run at full fidelity
either way.  Results are cached under ``.repro_cache/`` keyed by the
configuration, the experiment parameters and the code version, so a
repeated invocation is a cache hit; ``--no-cache`` bypasses the cache.
"""

from __future__ import annotations

import argparse
import sys

from .analysis.report import format_result_meta, format_series, format_table
from .engine import (
    DEFAULT_CACHE_DIR,
    NullCache,
    ResultCache,
    RunContext,
    all_experiments,
    make_executor,
    run_experiment,
    suggest,
)


def _render(name: str, data: dict) -> str:
    """Generic rendering of an experiment payload."""
    import dataclasses

    lines = [f"== {name} =="]
    for key, value in data.items():
        if key.endswith("_blocks") or key.endswith("_profile"):
            continue  # full matrices/profiles are API-level detail
        if (
            isinstance(value, (list, tuple))
            and value
            and dataclasses.is_dataclass(value[0])
        ):
            rows = [list(dataclasses.asdict(item).values()) for item in value]
            headers = list(dataclasses.asdict(value[0]).keys())
            lines.append(format_table(headers, rows, title=key))
            continue
        if dataclasses.is_dataclass(value):
            pairs = list(dataclasses.asdict(value).items())
            lines.append(format_series(key, pairs))
            continue
        if isinstance(value, dict):
            sample = next(iter(value.values()), None)
            if isinstance(sample, dict):
                headers = ["key", *sample.keys()]
                rows = [[k, *v.values()] for k, v in value.items()]
                try:
                    lines.append(format_table(headers, rows, title=key))
                    continue
                except (TypeError, ValueError):
                    pass
            lines.append(format_series(key, sorted(value.items(), key=str)))
        elif isinstance(value, (list, tuple)) and value and isinstance(
            value[0], tuple
        ):
            lines.append(format_series(key, value))
        else:
            lines.append(f"{key}: {value}")
    return "\n".join(str(line) for line in lines)


def _fail_unknown(kind: str, name: str, known: tuple[str, ...]) -> None:
    """Uniform exit-code-2 diagnostics with a did-you-mean hint."""
    hint = suggest(name, known)
    message = f"unknown {kind} {name!r}"
    if hint:
        message += f"; did you mean {hint!r}?"
    message += f" (run 'python -m repro list' for {kind}s)" if (
        kind == "experiment"
    ) else f" (choose from {', '.join(sorted(known))})"
    print(message, file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # ``serve`` and ``sweep`` are subcommands with their own flag sets;
    # delegate before the experiment parser can reject their options.
    if argv and argv[0] == "serve":
        from .engine.service import serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "sweep":
        from .sweepstore.cli import sweep_main

        return sweep_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("experiment", help="'list' or an experiment name")
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller traces for simulation-backed figures",
    )
    parser.add_argument(
        "--benchmarks", nargs="+", default=None,
        help="restrict simulation figures to these Table IV workloads",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="run independent simulation cells over N processes",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk result cache",
    )
    parser.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
        help=f"result cache location (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="perturb every workload generator seed (0 = paper default)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="fail fast on the first task error instead of degrading "
        "to a partial result",
    )
    parser.add_argument(
        "--fault-rate", type=float, default=None, metavar="R",
        help="inject a composite device fault model at stuck-cell rate R "
        "(with matching pump droop and process spread) into the run",
    )
    from .circuit.solvers import DEFAULT_SOLVER, available_solvers

    parser.add_argument(
        "--solver", choices=available_solvers(), default=DEFAULT_SOLVER,
        metavar="BACKEND",
        help="IR-drop solver backend: " + ", ".join(available_solvers())
        + f" (default: {DEFAULT_SOLVER}; reference is the unseeded oracle)",
    )
    parser.add_argument(
        "--mc-samples", type=int, default=None, metavar="K",
        help="Monte Carlo ensemble size per configuration for experiments "
        "that declare a 'samples' parameter (e.g. mc-sweep); participates "
        "in the result-cache key",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="collect tracing spans and counters for the run and print a "
        "profile report (also embedded under meta.profile with --json)",
    )
    parser.add_argument(
        "--json", metavar="PATH", nargs="?", const="-", default=None,
        help="also write the result (payload + run metadata + per-task "
        "error records) as JSON; omit PATH (or pass '-') for stdout",
    )
    args = parser.parse_args(argv)

    registry = all_experiments()

    if args.experiment == "list":
        for name, exp in registry.items():
            kind = "sim" if exp.simulation else "   "
            print(f"{name:18s} {kind}  {exp.title}")
        return 0

    if args.experiment not in registry:
        _fail_unknown("experiment", args.experiment, tuple(registry))
        return 2

    exp = registry[args.experiment]
    settings = None
    if exp.simulation:
        from .workloads import benchmark_suite

        known = tuple(benchmark_suite())
        for name in args.benchmarks or ():
            if name not in known:
                _fail_unknown("benchmark", name, known)
                return 2
        from .analysis.experiments import PerfSettings

        settings = PerfSettings(
            accesses_per_core=2500 if args.quick else 8000,
            benchmarks=tuple(args.benchmarks) if args.benchmarks else None,
        )

    faults = None
    if args.fault_rate is not None:
        from .faults import FaultModel

        faults = FaultModel.at_rate(args.fault_rate, seed=args.seed)
    collector = None
    if args.profile:
        from . import obs

        collector = obs.Collector()
    params = {}
    if args.mc_samples is not None:
        if args.mc_samples < 1:
            print(
                f"--mc-samples must be >= 1, got {args.mc_samples}",
                file=sys.stderr,
            )
            return 2
        params["samples"] = args.mc_samples
    context = RunContext(
        seed=args.seed,
        executor=make_executor(args.workers, strict=args.strict),
        cache=NullCache() if args.no_cache else ResultCache(args.cache_dir),
        faults=faults,
        strict=args.strict,
        collector=collector,
        solver=args.solver,
        params=params,
    )
    result = run_experiment(args.experiment, context, settings)
    if args.json != "-":  # JSON-on-stdout mode keeps stdout machine-readable
        print(_render(args.experiment, result.payload))
        print(format_result_meta(result))
        if args.profile:
            from .obs import format_profile

            print(format_profile(result.extra.get("profile", {})))
    for error in result.errors:
        print(
            f"task {error.index} failed after {error.attempts} attempt(s): "
            f"{error.error_type}: {error.message}",
            file=sys.stderr,
        )
    if args.json:
        import json

        document = json.dumps(result.to_plain(), indent=2) + "\n"
        if args.json == "-":
            sys.stdout.write(document)
        else:
            import pathlib

            path = pathlib.Path(args.json)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(document)
            print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
