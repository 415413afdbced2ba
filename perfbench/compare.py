#!/usr/bin/env python3
"""Compare two sets of benchmark runs, workload by workload.

Usage (from the repository root)::

    python3 perfbench/compare.py BASE NEW

``BASE`` and ``NEW`` are files or directories holding the saved standard
output of ``perfbench/run.py`` runs; every ``PERFBENCH-RECORD`` line
found is one run.  For each workload the report gives one row per
end-to-end metric (medians of the untraced runs, the change, and whether
it exceeds the metric's bound from ``BENCHMARK.json``), then the
per-layer self-time deltas of the traced runs, largest slowdown first,
so a regression names the module that slowed.  Simulator digests that
differ between the sets are flagged: a change meant only to speed up the
simulator must keep them equal.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from collections import defaultdict
from statistics import median

ROOT = pathlib.Path(__file__).resolve().parents[1]
RECORD_PREFIX = "PERFBENCH-RECORD "


def load_records(path: pathlib.Path) -> list[dict]:
    if path.is_dir():
        files = sorted(p for p in path.rglob("*") if p.is_file())
    else:
        files = [path]
    records = []
    for file in files:
        for line in file.read_text(errors="replace").splitlines():
            if line.startswith(RECORD_PREFIX):
                records.append(json.loads(line[len(RECORD_PREFIX) :]))
    return records


def _group(records: list[dict]) -> dict:
    """(workload, trace) -> metric -> values."""
    groups: dict = defaultdict(lambda: defaultdict(list))
    for record in records:
        for name, value in record["metrics"].items():
            groups[(record["workload"], record["trace"])][name].append(value)
    return groups


def _bounds() -> dict[str, tuple[float, str]]:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return {}
    spec = json.loads(spec_path.read_text())
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def end_to_end_rows(base: dict, new: dict, bounds: dict) -> list[str]:
    rows = []
    for name in sorted(set(base) & set(new)):
        b, n = median(base[name]), median(new[name])
        change = (n - b) / b if b else 0.0
        bound, better = bounds.get(name, (None, "lower"))
        worse = change if better == "lower" else -change
        verdict = ""
        if bound is not None:
            verdict = "REGRESSED" if worse > bound else (
                "improved" if worse < -bound else "within bound"
            )
        rows.append(
            f"  {name:<14} {b:>14.6g} -> {n:>14.6g} {100 * change:>+8.2f}%  "
            f"{verdict} (n={len(base[name])}/{len(new[name])})"
        )
    return rows


def layer_rows(base: dict, new: dict) -> list[str]:
    deltas = []
    for name in set(base) & set(new):
        if not (name.endswith("self_s") or name == "unattributed_s"):
            continue
        b, n = median(base[name]), median(new[name])
        if b == 0 and n == 0:
            continue
        deltas.append((n - b, name, b, n))
    rows = []
    for delta, name, b, n in sorted(deltas, reverse=True):
        share = f"{100 * delta / b:+8.1f}%" if b else "     new"
        rows.append(f"  {name:<36} {b:>10.4f} -> {n:>10.4f} s {delta:>+9.4f} s {share}")
    return rows


def compare(base_records: list[dict], new_records: list[dict]) -> str:
    base, new = _group(base_records), _group(new_records)
    bounds = _bounds()
    lines = []
    workloads = sorted({w for w, _ in base} | {w for w, _ in new})
    for workload in workloads:
        lines.append(f"== {workload}")
        if (workload, 0) in base and (workload, 0) in new:
            lines.append("  end to end (median of untraced runs)")
            lines += end_to_end_rows(base[(workload, 0)], new[(workload, 0)], bounds)
        if (workload, 1) in base and (workload, 1) in new:
            lines.append("  per-layer self time (median of traced runs)")
            lines += layer_rows(base[(workload, 1)], new[(workload, 1)])
        for label, group in (("base", base), ("new", new)):
            traced = group.get((workload, 1), {}).get("trace.run_s")
            plain = group.get((workload, 0), {}).get("run_s")
            if traced and plain:
                overhead = median(traced) / median(plain) - 1
                lines.append(
                    f"  tracing overhead ({label}): {100 * overhead:+.1f}% run_s"
                )
        digests = {
            side: {
                (r["seed"], r["digest"])
                for r in records
                if r["workload"] == workload and r.get("digest")
            }
            for side, records in (("base", base_records), ("new", new_records))
        }
        base_by_seed = dict(digests["base"])
        changed = sorted(
            seed for seed, digest in digests["new"]
            if seed in base_by_seed and base_by_seed[seed] != digest
        )
        if changed:
            lines.append(f"  OUTPUT DIGEST CHANGED for seeds {changed}")
        elif base_by_seed:
            lines.append("  output digests unchanged on shared seeds")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=pathlib.Path)
    parser.add_argument("new", type=pathlib.Path)
    args = parser.parse_args(argv)
    base, new = load_records(args.base), load_records(args.new)
    if not base or not new:
        print("compare: no PERFBENCH-RECORD lines in one of the sets", file=sys.stderr)
        return 2
    print(compare(base, new))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
