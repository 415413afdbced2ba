"""Predicates, cross-run joins, and the ``repro sweep`` CLI."""

import json

import pytest

from repro.sweepstore import (
    Table,
    apply_filters,
    join_tables,
    parse_predicate,
)
from repro.sweepstore.cli import sweep_main

from .conftest import make_rows


class TestPredicates:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("technique==Base", ("technique", "==", "Base")),
            ("technique=Base", ("technique", "==", "Base")),
            ("fault_rate<=0.001", ("fault_rate", "<=", "0.001")),
            ("seed!=0", ("seed", "!=", "0")),
            ("latency_us>1.5", ("latency_us", ">", "1.5")),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_predicate(text) == expected

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="cannot parse predicate"):
            parse_predicate("no-operator-here")

    def test_filters_coerce_value_types(self, rows):
        table = Table.from_rows(rows)
        # String-sourced numeric predicate still compares numerically.
        out = apply_filters(table, [("fault_rate", "<=", "0.0001")])
        assert out.num_rows == 4
        out = apply_filters(table, [("seed", "==", "0")])
        assert out.num_rows == len(rows)

    def test_in_predicate(self, rows):
        table = Table.from_rows(rows)
        out = apply_filters(
            table, [("technique", "in", ["Base", "missing"])]
        )
        assert set(out.column("technique")) == {"Base"}


class TestJoins:
    def test_cross_technique_join(self, store):
        store.append(make_rows())
        base = store.query(where=[("technique", "==", "Base")])
        drvr = store.query(where=[("technique", "==", "DRVR+PR")])
        joined = join_tables(
            base,
            drvr,
            on=("config_hash", "solver", "seed", "fault_rate"),
            select_left=["latency_us"],
            select_right=["latency_us", "min_endurance"],
        )
        assert len(joined["fault_rate"]) == 3
        assert set(joined) == {
            "config_hash", "solver", "seed", "fault_rate",
            "latency_us_l", "latency_us_r", "min_endurance",
        }

    def test_cross_run_join_across_solvers(self, store):
        """The headline query: same cells solved under two backends."""
        store.append(make_rows(solver="reference", latency_base=1.0))
        store.append(make_rows(solver="batched", latency_base=1.0))
        store.combine()
        reference = store.query(where=[("solver", "==", "reference")])
        batched = store.query(where=[("solver", "==", "batched")])
        joined = join_tables(
            reference,
            batched,
            on=("config_hash", "technique", "seed", "fault_rate"),
            select_left=["latency_us", "array_size"],
            select_right=["latency_us"],
        )
        assert len(joined["fault_rate"]) == 6
        assert joined["latency_us_l"] == joined["latency_us_r"]
        assert set(joined["array_size"]) == {512}

    def test_join_on_unknown_column(self, store):
        table = Table.from_rows(make_rows())
        with pytest.raises(ValueError, match="unknown join column"):
            join_tables(table, table, on=("nope",))

    def test_empty_join(self):
        out = join_tables(
            Table.empty(), Table.empty(), on=("config_hash",),
            select_left=["latency_us"], select_right=["latency_us"],
        )
        assert out["config_hash"] == []


def _result_doc(path, seed=0):
    document = {
        "experiment": "fault_sweep",
        "meta": {"config_hash": "cfgcli", "seed": seed, "wall_s": 0.2},
        "payload": {
            "margins": {
                f"{scheme} @ {rate:g}": {
                    "latency_us": 2.0,
                    "min_endurance": 1e6,
                    "fail_fraction": 0.0,
                    "stuck_fraction": rate,
                }
                for scheme in ("Base", "DRVR")
                for rate in (0.0, 1e-3)
            }
        },
    }
    path.write_text(json.dumps(document))
    return path


class TestCli:
    def test_ingest_combine_query_stats_round_trip(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        doc = _result_doc(tmp_path / "result.json")
        code = sweep_main(
            ["ingest", store_dir, str(doc),
             "--solver", "batched", "--set", "array_size=512"]
        )
        assert code == 0
        assert "ingested 4 rows" in capsys.readouterr().out

        assert sweep_main(["combine", store_dir]) == 0
        assert "generation 1: 4 rows" in capsys.readouterr().out

        code = sweep_main(
            ["query", store_dir, "--where", "technique==Base",
             "--columns", "cell,latency_us,array_size"]
        )
        assert code == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert lines[0] == "cell\tlatency_us\tarray_size"
        assert len(lines) == 3  # header + two Base cells
        assert "512" in lines[1]
        assert "2 rows" in captured.err

        assert sweep_main(["stats", store_dir, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["generation"] == 1
        assert stats["combined_rows"] == 4

    def test_query_json_rows(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        sweep_main(
            ["ingest", store_dir, str(_result_doc(tmp_path / "r.json"))]
        )
        capsys.readouterr()
        assert sweep_main(
            ["query", store_dir, "--json", "--columns", "cell,value",
             "--limit", "1"]
        ) == 0
        out = capsys.readouterr().out.strip().splitlines()
        row = json.loads(out[0])
        assert set(row) == {"cell", "value"}
        assert row["value"] is None  # NaN fill serialises as null

    def test_ingest_rejects_unknown_set_column(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown sweep column"):
            sweep_main(
                ["ingest", str(tmp_path / "s"),
                 str(_result_doc(tmp_path / "r.json")),
                 "--set", "nope=1"]
            )

    def test_empty_ingest_fails_cleanly(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"experiment": "x", "payload": {}}))
        code = sweep_main(["ingest", str(tmp_path / "s"), str(empty)])
        assert code == 1
        assert "nothing to ingest" in capsys.readouterr().out

    def test_main_module_delegates_sweep(self, tmp_path, capsys):
        from repro.__main__ import main

        sweep_main(
            ["ingest", str(tmp_path / "s"),
             str(_result_doc(tmp_path / "r.json"))]
        )
        capsys.readouterr()
        assert main(["sweep", "stats", str(tmp_path / "s")]) == 0
        assert "pending_shards: 1" in capsys.readouterr().out

    def test_bad_predicate_is_a_clean_error(self, tmp_path, capsys):
        sweep_main(
            ["ingest", str(tmp_path / "s"),
             str(_result_doc(tmp_path / "r.json"))]
        )
        capsys.readouterr()
        code = sweep_main(
            ["query", str(tmp_path / "s"), "--where", "garbage"]
        )
        assert code == 2
        assert "cannot parse predicate" in capsys.readouterr().err
