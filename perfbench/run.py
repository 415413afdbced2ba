#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sim-write --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines before it are the human-readable report: the workload's own
metrics by name and unit, the output checks, the simulator digest, and
(traced) the attribution table.  A ``PERFBENCH-RECORD`` line carries the
whole run for ``perfbench/compare.py``.

The benchmark imports ``repro`` from ``src/`` next to this directory and
exits with code 2 when those sources are absent.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKLOADS = ("sim-write", "sim-read", "array-cold", "serve-mixed")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def execute(args):
    """Run the workload, with the layer wrappers installed when traced."""
    import importlib

    from perfbench.layers import program_layers
    from perfbench.tracer import Tracer, installed

    name = {
        "sim-write": "sim",
        "sim-read": "sim",
        "array-cold": "array_cold",
        "serve-mixed": "serve",
    }[args.workload]
    module = importlib.import_module(f"perfbench.{name}")
    if not args.trace:
        return module.run(args, tracer=None)
    if name == "serve":
        # serve-mixed's layers live in the server process; its traced
        # run reads them from the service's own ``stats`` op.
        return module.run(args, tracer=Tracer())
    with installed(Tracer(), program_layers()) as tracer:
        return module.run(args, tracer=tracer)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources at {ROOT / 'src' / 'repro'}",
            file=sys.stderr,
        )
        return 2
    # Import the benchmark as a package, not its files as top-level
    # modules from the script directory.
    sys.path[:] = [p for p in sys.path if pathlib.Path(p or ".").resolve()
                   != ROOT / "perfbench"]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.compare import RECORD_PREFIX
    from perfbench.metrics import END_TO_END, PER_LAYER
    from perfbench.tracer import format_attribution

    outcome = execute(args)
    failed_frac = outcome.failed / max(outcome.attempted, 1)
    print(f"== perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for line in outcome.report:
        print(line)
    for op, reasons in sorted(outcome.failed_ops.items()):
        print(f"FAILED {op}: {'; '.join(reasons)}")
    print(
        f"failed_frac = {failed_frac:.4f} frac "
        f"({outcome.failed} of {outcome.attempted} operations)"
    )
    if args.trace:
        layers = {name: 0.0 for name in PER_LAYER}
        layers.update(outcome.layers)
        if outcome.attribution is not None:
            print(format_attribution(args.workload, outcome.attribution))
            layers["unattributed_s"] = outcome.attribution["unattributed_s"]
            layers["span_coverage"] = outcome.attribution["coverage"]
        metrics = {
            name: {"value": layers[name], "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    else:
        for name, (unit, _) in END_TO_END.items():
            print(f"{name} = {outcome.metrics[name]!r} {unit}")
        metrics = {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, (unit, _) in END_TO_END.items()
        }
    correct = outcome.failed == 0
    for metric in metrics.values():
        if not math.isfinite(metric["value"]):
            # Nothing was measured (every operation failed); JSON has no
            # NaN, so report 0 and mark the run incorrect.
            metric["value"] = 0.0
            correct = False
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: m["value"] for name, m in metrics.items()},
        "attribution": outcome.attribution,
        "digest": outcome.digest,
    }
    print(RECORD_PREFIX + json.dumps(record, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
