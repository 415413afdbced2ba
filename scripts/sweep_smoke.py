#!/usr/bin/env python3
"""CI smoke test for the columnar sweep store.

Pushes a small scripted fault-sweep (2 configs x 3 seeds x 2 solvers
x 4 techniques x 5 fault rates = 240 rows) through the full ETL path
— ingest, combine, filtered query, cross-solver join — with golden
assertions at every step:

* combine commits exactly one generation holding every ingested row;
* re-ingesting the identical sweep and re-combining is idempotent
  (same row count, byte-identical canonical fingerprint);
* a filtered projection returns the exact expected row count;
* the cross-run join matches every reference-solver design point to
  its batched-solver twin, and the latency delta equals the scripted
  solver offset on every joined row.

Usage::

    python scripts/sweep_smoke.py
"""

from __future__ import annotations

import pathlib
import sys
import tempfile

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.sweepstore import (  # noqa: E402
    SweepStore,
    join_tables,
    rows_from_result,
)

CONFIGS = 2
SEEDS = 3
SOLVERS = ("reference", "batched")
TECHNIQUES = ("Base", "DRVR", "PR", "DRVR+PR")
RATES = tuple(round(i * 1e-4, 12) for i in range(5))
#: Scripted latency penalty of the batched solver — the join's golden.
SOLVER_OFFSET = 0.25

ROWS = CONFIGS * SEEDS * len(SOLVERS) * len(TECHNIQUES) * len(RATES)
JOIN_KEYS = ("config_hash", "experiment", "technique", "seed", "cell")


def _documents(solver: str) -> "list[dict]":
    """Deterministic fault-sweep documents (no RNG: stable fingerprints)."""
    offset = SOLVER_OFFSET if solver == "batched" else 0.0
    documents = []
    for config_i in range(CONFIGS):
        for seed in range(SEEDS):
            margins = {}
            for t, technique in enumerate(TECHNIQUES):
                for rate in RATES:
                    margins[f"{technique} @ {rate:g}"] = {
                        "latency_us": round(
                            1.0 + 0.1 * t + rate * 1e3 + 0.01 * seed + offset,
                            9,
                        ),
                        "min_endurance": round(1e6 / (1 + t + rate * 1e4), 6),
                        "fail_fraction": round(rate * (4 - t) * 10.0, 9),
                        "stuck_fraction": rate,
                    }
            documents.append(
                {
                    "experiment": "fault_sweep",
                    "meta": {
                        "config_hash": f"cfg{config_i:03d}",
                        "seed": seed,
                        "wall_s": 0.01,
                    },
                    "payload": {"margins": margins},
                }
            )
    return documents


def _ingest_all(store: SweepStore) -> int:
    rows = 0
    for solver in SOLVERS:
        for document in _documents(solver):
            batch = rows_from_result(document, solver=solver)
            store.append(batch)
            rows += len(batch)
    return rows


def _smoke() -> str:
    """Run the full ETL path; returns the canonical fingerprint."""
    with tempfile.TemporaryDirectory(prefix="sweep-smoke-") as root:
        store = SweepStore(root, grace_s=0.0)
        ingested = _ingest_all(store)
        assert ingested == ROWS, (ingested, ROWS)

        report = store.combine()
        assert report.generation == 1, report
        assert report.rows == ROWS, report
        assert report.folded_rows == ROWS, report
        assert not report.quarantined, report
        stats = store.stats()
        assert stats["combined_rows"] == ROWS, stats
        assert stats["pending_shards"] == 0, stats
        fingerprint = store.table().fingerprint()

        # Idempotence: the same sweep folds to the same canonical table.
        assert _ingest_all(store) == ROWS
        again = store.combine()
        assert again.rows == ROWS, again
        assert store.table().fingerprint() == fingerprint

        # Filtered projection: one technique, lowest three fault rates.
        cut = store.query(
            where=[("technique", "==", TECHNIQUES[-1]), ("fault_rate", "<=", 2e-4)],
            columns=["fault_rate", "latency_us", "solver"],
        )
        expected = CONFIGS * SEEDS * len(SOLVERS) * 3
        assert len(cut["latency_us"]) == expected, len(cut["latency_us"])

        # Cross-run join: every reference design point meets its
        # batched twin exactly once, offset by the scripted penalty.
        left = store.query(where=[("solver", "==", SOLVERS[0])])
        right = store.query(where=[("solver", "==", SOLVERS[1])])
        joined = join_tables(
            left,
            right,
            on=JOIN_KEYS,
            select_left=["latency_us"],
            select_right=["latency_us"],
        )
        matches = len(joined["latency_us_l"])
        assert matches == ROWS // 2, matches
        worst = max(
            abs((b - a) - SOLVER_OFFSET)
            for a, b in zip(joined["latency_us_l"], joined["latency_us_r"])
        )
        assert worst < 1e-9, worst

        print(
            f"sweep-smoke: {ingested} rows, "
            f"join {matches} matches, fingerprint {fingerprint[:16]}..."
        )
        return fingerprint


def main() -> int:
    _smoke()
    print("sweep smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
