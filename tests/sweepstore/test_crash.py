"""Crash consistency: every torn write degrades to quarantine, never to
silently wrong query results."""

import json
import os

from repro.sweepstore import SweepStore
from repro.sweepstore.store import MANIFEST_SUFFIX


def _shard_files(store):
    manifests = sorted(store.shards_dir.glob(f"*{MANIFEST_SUFFIX}"))
    data = sorted(
        p
        for p in store.shards_dir.iterdir()
        if not p.name.endswith(MANIFEST_SUFFIX) and not p.name.startswith(".")
    )
    return manifests, data


class TestKillDuringIngest:
    """Each test reproduces one crash window of the append protocol."""

    def test_reservation_only(self, store, rows):
        """Killed after the O_EXCL reservation, before any data."""
        store.append(rows)
        store.shards_dir.joinpath(
            f"shard-{os.getpid()}-999999{MANIFEST_SUFFIX}"
        ).write_bytes(b"")
        assert store.table().num_rows == len(rows)  # invisible to readers
        report = store.combine()
        assert report.rows == len(rows)
        assert len(report.quarantined) == 1
        assert len(list(store.quarantine_dir.iterdir())) == 1

    def test_data_published_manifest_placeholder(self, store, rows):
        """Killed between the data replace and the manifest fill."""
        store.append(rows)
        orphan = store.shards_dir / f"shard-{os.getpid()}-888888.npz"
        orphan.write_bytes(b"not a real npz")
        store.shards_dir.joinpath(
            f"shard-{os.getpid()}-888888{MANIFEST_SUFFIX}"
        ).write_bytes(b"")
        assert store.table().num_rows == len(rows)
        report = store.combine()
        assert report.rows == len(rows)
        assert len(report.quarantined) == 2  # placeholder + orphan data

    def test_tmp_file_leftover(self, store, rows):
        """Killed mid-data-write: the dot-tmp never got replaced."""
        store.append(rows)
        store.shards_dir.joinpath(".shard-1-000001.npz.tmp-1").write_bytes(
            b"partial"
        )
        report = store.combine()
        assert report.rows == len(rows)
        assert len(report.quarantined) == 1

    def test_torn_data_file_is_quarantined_by_checksum(self, store, rows):
        store.append(rows)
        manifests, data = _shard_files(store)
        payload = data[0].read_bytes()
        data[0].write_bytes(payload[: len(payload) // 2])  # torn write
        assert store.table().num_rows == 0  # skipped, not misread
        report = store.combine()
        assert report.rows == 0
        assert len(report.quarantined) == 2  # data + its manifest
        # The evidence survives with the original content.
        quarantined = sorted(store.quarantine_dir.iterdir())
        assert any(p.read_bytes() == payload[: len(payload) // 2]
                   for p in quarantined)

    def test_grace_protects_inflight_ingest(self, tmp_path, rows):
        """A *fresh* placeholder is an ingest in progress, not a crash."""
        store = SweepStore(tmp_path / "s", grace_s=3600.0)
        store.append(rows)
        store.shards_dir.joinpath(
            f"shard-{os.getpid()}-777777{MANIFEST_SUFFIX}"
        ).write_bytes(b"")
        report = store.combine()
        assert report.quarantined == []
        assert store.shards_dir.joinpath(
            f"shard-{os.getpid()}-777777{MANIFEST_SUFFIX}"
        ).exists()

    def test_only_quarantined_or_complete_after_crash_combine(
        self, store, rows
    ):
        """The headline invariant: post-combine, shards/ holds nothing
        but complete shards; everything else moved to quarantine/."""
        store.append(rows)
        store.shards_dir.joinpath(
            f"shard-{os.getpid()}-999990{MANIFEST_SUFFIX}"
        ).write_bytes(b"")
        store.shards_dir.joinpath("shard-1-999991.npz").write_bytes(b"junk")
        store.shards_dir.joinpath(".shard-1-999992.npz.tmp-9").write_bytes(b"j")
        store.combine()
        leftovers = list(store.shards_dir.iterdir())
        assert leftovers == []  # the good shard folded, debris quarantined
        assert len(list(store.quarantine_dir.iterdir())) == 3


class TestCombineCrashRecovery:
    def test_rerun_after_interrupted_combine_converges(self, store, rows):
        """Orphan generation files from a combine that died pre-commit."""
        store.append(rows)
        first = store.combine()
        # Simulate a combiner that wrote gen N+1 and crashed before the
        # CURRENT flip: readers still see gen N; the next combine must
        # skip the orphan number and converge.
        orphan = store.combined_dir / "table-000005.npz"
        orphan.write_bytes(b"half a table")
        store.append([dict(rows[0], latency_us=9.9)])
        report = store.combine()
        assert report.generation == 6  # never reuses a possibly-torn number
        assert report.rows == len(rows)
        assert not orphan.exists()

    def test_corrupt_canonical_table_is_quarantined_not_fatal(
        self, store, rows
    ):
        store.append(rows)
        store.combine()
        pointer = json.loads((store.combined_dir / "CURRENT").read_text())
        table_path = store.combined_dir / pointer["table"]
        table_path.write_bytes(b"corrupted canonical table")
        report = store.combine()
        assert len(report.quarantined) == 2  # table + manifest evidence
        assert report.rows == 0
        # Queries degrade to the rebuilt (empty) view rather than crash.
        assert store.table().num_rows == 0

    def test_combine_is_crash_idempotent_on_refold(self, store, rows):
        """Folding the same shard content twice yields the same table —
        the recovery path for a crash after publish, before deletion."""
        store.append(rows)
        store.combine()
        fingerprint = store.table().fingerprint()
        store.append(rows)  # stands in for the undeleted folded shard
        store.combine()
        assert store.table().fingerprint() == fingerprint


class TestBackendParity:
    def test_npz_round_trip_preserves_fingerprint(self, store, rows):
        from repro.sweepstore import Table

        source = Table.from_rows(rows)
        store.append(rows)
        store.combine()
        assert store.table().fingerprint() == source.canonical().fingerprint()
