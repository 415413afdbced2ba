"""Row extraction from experiment artifacts and the serve-plane spill."""

import math

import numpy as np
import pytest

from repro.engine.artifact import ExperimentResult
from repro.sweepstore import SweepSpill, SweepStore, rows_from_result
from repro.sweepstore.ingest import MAX_GENERIC_CELLS


def _fault_sweep_result(**meta):
    payload = {
        "rates": [0.0, 1e-3],
        "schemes": ["Base", "DRVR+PR"],
        "margins": {
            f"{scheme} @ {rate:g}": {
                "stuck_fraction": rate,
                "latency_us": 1.5 if scheme == "Base" else 1.2,
                "min_endurance": 2e6,
                "fail_fraction": 0.0,
            }
            for scheme in ("Base", "DRVR+PR")
            for rate in (0.0, 1e-3)
        },
    }
    meta.setdefault("config_hash", "cfg123")
    meta.setdefault("wall_s", 0.5)
    meta.setdefault("seed", 3)
    return ExperimentResult(name="fault_sweep", payload=payload, **meta)


class TestWideExtraction:
    def test_one_row_per_margin_cell(self):
        rows = rows_from_result(_fault_sweep_result())
        assert len(rows) == 4
        cells = {row["cell"] for row in rows}
        assert cells == {"Base@0", "Base@0.001", "DRVR+PR@0", "DRVR+PR@0.001"}

    def test_metric_columns_and_identity(self):
        rows = rows_from_result(
            _fault_sweep_result(), solver="batched", fault_set="abc"
        )
        row = next(r for r in rows if r["cell"] == "DRVR+PR@0.001")
        assert row["technique"] == "DRVR+PR"
        assert row["fault_rate"] == pytest.approx(1e-3)
        assert row["latency_us"] == pytest.approx(1.2)
        assert row["min_endurance"] == pytest.approx(2e6)
        assert row["solver"] == "batched"
        assert row["fault_set"] == "abc"
        assert row["config_hash"] == "cfg123"
        assert row["seed"] == 3
        assert row["experiment"] == "fault_sweep"

    def test_accepts_plain_json_document(self):
        document = _fault_sweep_result().to_plain()
        assert rows_from_result(document) == rows_from_result(
            _fault_sweep_result()
        )

    def test_extra_fixes_columns_on_every_row(self):
        rows = rows_from_result(
            _fault_sweep_result(), extra={"array_size": 256}
        )
        assert all(row["array_size"] == 256 for row in rows)

    def test_sweep_rows_method_on_the_artifact(self):
        result = _fault_sweep_result()
        assert result.sweep_rows(solver="batched") == rows_from_result(
            result, solver="batched"
        )


class TestGenericExtraction:
    def test_numeric_leaves_become_long_rows(self):
        result = ExperimentResult(
            name="fig04",
            payload={"drop_mv": {"near": 12.5, "far": 48.0}, "sizes": [128, 256]},
            config_hash="cfgX",
            wall_s=0.1,
        )
        rows = rows_from_result(result)
        by_cell = {row["cell"]: row["value"] for row in rows}
        assert by_cell == {
            "drop_mv.near": 12.5,
            "drop_mv.far": 48.0,
            "sizes[0]": 128.0,
            "sizes[1]": 256.0,
        }
        # No technique claim on generic rows: the column defaults to "".
        assert all(row.get("technique", "") == "" for row in rows)

    def test_non_numeric_leaves_are_skipped(self):
        rows = rows_from_result(
            ExperimentResult(
                name="x", payload={"label": "hello", "v": 1.0},
                config_hash="c", wall_s=0.0,
            )
        )
        assert [row["cell"] for row in rows] == ["v"]

    def test_numpy_scalars_are_ingestable(self):
        rows = rows_from_result(
            ExperimentResult(
                name="x", payload={"v": np.float64(2.5)},
                config_hash="c", wall_s=0.0,
            )
        )
        assert rows[0]["value"] == 2.5

    def test_generic_extraction_is_capped(self):
        rows = rows_from_result(
            ExperimentResult(
                name="x",
                payload={"big": list(range(MAX_GENERIC_CELLS * 2))},
                config_hash="c",
                wall_s=0.0,
            )
        )
        assert len(rows) == MAX_GENERIC_CELLS

    def test_wall_s_travels_on_every_row(self):
        rows = rows_from_result(_fault_sweep_result())
        assert all(row["wall_s"] == pytest.approx(0.5) for row in rows)
        rows = rows_from_result({"experiment": "x", "payload": {"v": 1}})
        assert math.isnan(rows[0]["wall_s"])


class TestSweepSpill:
    def test_buffers_until_flush_rows(self, tmp_path):
        spill = SweepSpill(tmp_path / "s", flush_rows=6)
        assert spill.add(_fault_sweep_result()) == 4
        assert spill.pending == 4
        assert spill.store.stats()["pending_shards"] == 0  # still buffered
        spill.add(_fault_sweep_result(seed=1))
        assert spill.pending == 0  # crossed the threshold -> one shard
        assert spill.store.stats()["pending_shards"] == 1

    def test_flush_drains_the_tail(self, tmp_path):
        spill = SweepSpill(tmp_path / "s", flush_rows=100)
        spill.add(_fault_sweep_result())
        assert spill.flush() == 4
        assert spill.flush() == 0
        assert spill.store.table().num_rows == 4

    def test_accepts_an_existing_store(self, tmp_path):
        store = SweepStore(tmp_path / "s")
        spill = SweepSpill(store, flush_rows=1)
        spill.add(_fault_sweep_result())
        assert store.table().num_rows == 4

    def test_invalid_flush_rows(self, tmp_path):
        with pytest.raises(ValueError, match="flush_rows"):
            SweepSpill(tmp_path / "s", flush_rows=0)


class TestPlanIdentity:
    def test_build_plan_carries_sweep_identity(self):
        from repro.engine.context import RunContext
        from repro.engine.plan import build_plan
        from repro.faults import FaultModel

        context = RunContext(seed=5, solver="batched",
                             faults=FaultModel.at_rate(1e-3, seed=5))
        plan = build_plan("fig04", context)
        assert plan.solver == "batched"
        assert plan.seed == 5
        assert plan.fault_set != "none"
        assert len(plan.fault_set) == 12

    def test_default_plan_identity(self):
        from repro.engine.context import RunContext
        from repro.engine.plan import build_plan

        plan = build_plan("fig04", RunContext())
        assert plan.solver == "reference"
        assert plan.fault_set == "none"
        assert plan.seed == 0
