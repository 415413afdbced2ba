"""Sweep store core: shards, combine, dedup, canonical fingerprints."""

import json

import numpy as np
import pytest

from repro.sweepstore import Table, concat_tables
from repro.sweepstore.store import MANIFEST_SUFFIX

from .conftest import make_rows


class TestTable:
    def test_from_rows_round_trip(self, rows):
        table = Table.from_rows(rows)
        assert table.num_rows == len(rows)
        back = table.to_rows()
        assert back[0]["technique"] == rows[0]["technique"]
        assert back[0]["latency_us"] == rows[0]["latency_us"]

    def test_missing_columns_take_defaults(self):
        table = Table.from_rows([{"cell": "x"}])
        assert table.column("technique")[0] == ""
        assert table.column("seed")[0] == -1
        assert np.isnan(table.column("value")[0])

    def test_unknown_column_is_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep column"):
            Table.from_rows([{"cel": "typo"}])

    def test_fingerprint_is_order_invariant(self, rows):
        forward = Table.from_rows(rows)
        backward = Table.from_rows(list(reversed(rows)))
        assert forward.fingerprint() == backward.fingerprint()
        assert forward == backward

    def test_fingerprint_sees_value_changes(self, rows):
        changed = [dict(row) for row in rows]
        changed[0]["latency_us"] += 1e-9
        assert (
            Table.from_rows(rows).fingerprint()
            != Table.from_rows(changed).fingerprint()
        )

    def test_canonical_dedups_last_wins(self, rows):
        update = dict(rows[0])
        update["latency_us"] = 123.0
        table = Table.from_rows(rows + [update]).canonical()
        assert table.num_rows == len(rows)
        mask = [
            cell == rows[0]["cell"] and tech == rows[0]["technique"]
            for cell, tech in zip(table.column("cell"), table.column("technique"))
        ]
        assert table.column("latency_us")[mask.index(True)] == 123.0

    def test_concat_of_empties_is_empty(self):
        assert concat_tables([Table.empty(), Table.empty()]).num_rows == 0


class TestAppendAndQuery:
    def test_append_returns_shard_and_rows_are_queryable(self, store, rows):
        shard = store.append(rows)
        assert shard is not None
        assert store.table().num_rows == len(rows)

    def test_append_empty_is_a_noop(self, store):
        assert store.append([]) is None
        assert store.table().num_rows == 0

    def test_two_appends_both_visible_before_combine(self, store, rows):
        store.append(rows[:3])
        store.append(rows[3:])
        assert store.table().num_rows == len(rows)

    def test_query_filters_and_projects(self, store, rows):
        store.append(rows)
        out = store.query(
            where=[("technique", "==", "Base"), ("fault_rate", "<=", 1e-4)],
            columns=["cell", "latency_us"],
        )
        assert set(out) == {"cell", "latency_us"}
        assert len(out["cell"]) == 2
        assert all(cell.startswith("Base@") for cell in out["cell"])

    def test_query_limit(self, store, rows):
        store.append(rows)
        assert store.query(limit=2).num_rows == 2

    def test_unknown_filter_column_raises(self, store, rows):
        store.append(rows)
        with pytest.raises(ValueError, match="unknown sweep column"):
            store.query(where=[("nope", "==", "x")])

    def test_shard_manifest_records_checksum_and_rows(self, store, rows):
        store.append(rows)
        manifests = list(store.shards_dir.glob(f"*{MANIFEST_SUFFIX}"))
        assert len(manifests) == 1
        doc = json.loads(manifests[0].read_text())
        assert doc["rows"] == len(rows)
        assert len(doc["checksum"]) == 64
        assert doc["backend"] == "npz"


class TestCombine:
    def test_combine_folds_and_deletes_shards(self, store, rows):
        store.append(rows[:3])
        store.append(rows[3:])
        report = store.combine()
        assert report.generation == 1
        assert report.folded_shards == 2
        assert report.rows == len(rows)
        assert not list(store.shards_dir.glob(f"*{MANIFEST_SUFFIX}"))
        assert store.table().num_rows == len(rows)

    def test_combine_without_new_shards_is_a_noop(self, store, rows):
        store.append(rows)
        first = store.combine()
        second = store.combine()
        assert second.generation == first.generation
        assert second.folded_shards == 0
        assert second.rows == first.rows

    def test_reingesting_the_same_sweep_is_idempotent(self, store, rows):
        store.append(rows)
        store.combine()
        before = store.table().fingerprint()
        store.append(rows)  # identical identities, identical values
        report = store.combine()
        assert report.rows == len(rows)
        assert store.table().fingerprint() == before

    def test_last_writer_wins_across_combines(self, store, rows):
        store.append(rows)
        store.combine()
        update = dict(rows[0])
        update["latency_us"] = 777.0
        store.append([update])
        store.combine()
        table = store.query(where=[("cell", "==", rows[0]["cell"])])
        got = [
            lat
            for lat, tech in zip(
                table.column("latency_us"), table.column("technique")
            )
            if tech == rows[0]["technique"]
        ]
        assert got == [777.0]

    def test_old_generations_are_dropped(self, store, rows):
        store.append(rows[:3])
        store.combine()
        store.append(rows[3:])
        report = store.combine()
        tables = [
            p.name
            for p in store.combined_dir.glob("table-*")
            if not p.name.endswith(MANIFEST_SUFFIX)
        ]
        assert tables == [f"table-{report.generation:06d}.npz"]

    def test_combined_plus_fresh_shards_dedup_in_queries(self, store, rows):
        store.append(rows)
        store.combine()
        update = dict(rows[0])
        update["latency_us"] = 55.5
        store.append([update])  # not yet combined
        table = store.query()
        assert table.num_rows == len(rows)
        assert 55.5 in list(table.column("latency_us"))
        assert store.query(combined_only=True).num_rows == len(rows)

    def test_stats_reflect_lifecycle(self, store, rows):
        stats = store.stats()
        assert stats["generation"] == 0
        assert stats["pending_shards"] == 0
        store.append(rows)
        stats = store.stats()
        assert stats["pending_shards"] == 1
        assert stats["pending_rows"] == len(rows)
        store.combine()
        stats = store.stats()
        assert stats["generation"] == 1
        assert stats["combined_rows"] == len(rows)
        assert stats["pending_shards"] == 0


class TestCrossRunAccumulation:
    def test_runs_accumulate_across_solvers_and_seeds(self, store):
        store.append(make_rows(solver="reference"))
        store.combine()
        store.append(make_rows(solver="batched"))
        store.append(make_rows(solver="batched", seed=1))
        report = store.combine()
        assert report.rows == 3 * len(make_rows())
        solvers = set(store.table().column("solver"))
        assert solvers == {"reference", "batched"}


class TestForeignDataFile:
    def test_parquet_data_file_fails_naming_the_file(self, store, rows):
        """A shard whose data file is not npz is an error, never empty."""
        name = store.append(rows)
        manifest_path = store.shards_dir / f"{name}{MANIFEST_SUFFIX}"
        manifest = json.loads(manifest_path.read_text())
        data = store.shards_dir / manifest["data"]
        foreign = data.with_suffix(".parquet")
        data.rename(foreign)
        manifest.update(data=foreign.name, backend="parquet")
        manifest_path.write_text(json.dumps(manifest))
        for read in (store.table, store.combine):
            with pytest.raises(RuntimeError, match=foreign.name):
                read()
        assert foreign.exists()  # not quarantined as a torn write
