"""Append-only columnar sweep store with incremental combine.

Layout of one store directory::

    <root>/
      shards/
        shard-<pid>-<seq><ext>               one ingested row batch
        shard-<pid>-<seq>.manifest.json      its checksummed envelope
      combined/
        table-<gen><ext> (+ manifest)        the canonical deduped table
        CURRENT                              pointer to the live generation
      quarantine/                            evidence of corrupt/crashed writes

Write discipline (the same O_EXCL + ``os.replace`` rules as
``engine/cache.py``):

1. The shard *name* is reserved by creating its manifest path with
   ``O_CREAT | O_EXCL`` — two concurrent ingesters can never collide on
   a shard, whatever their pids/threads.
2. The data file is written to a dot-tmp sibling and published with
   ``os.replace`` (atomic on POSIX).
3. The real manifest — row count, SHA-256 of the published data bytes,
   backend, creation time — is written to a tmp and ``os.replace``\\ d
   over the reservation placeholder **last**.

Readers only trust shards whose manifest parses and whose data
checksum matches, so every crash window degrades to an *invisible*
shard: a reservation with no data, data with a placeholder manifest,
or a torn data file all fail validation and are quarantined by the
next :meth:`SweepStore.combine` (after a grace period, so an ingest
that is merely *in progress* is never mistaken for a crash).

:meth:`SweepStore.combine` folds valid shards into the canonical
table: concat (current generation first, then shards in created
order), last-writer-wins dedup on the identity key, canonical sort,
atomic publish of ``table-<gen+1>`` and the ``CURRENT`` pointer, then
deletion of the folded shards.  Every step is idempotent: a crash
anywhere re-runs cleanly, and re-ingesting the same sweep changes
nothing but the generation number.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import time

import numpy as np
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .backend import NpzBackend
from .schema import Table, apply_filters, concat_tables

__all__ = ["CombineReport", "CorruptShard", "SweepStore"]

SCHEMA_VERSION = 1
MANIFEST_SUFFIX = ".manifest.json"
_CURRENT = "CURRENT"

#: Distinguishes concurrent shard reservations within one process.
_SHARD_SEQ = itertools.count(1)


class CorruptShard(RuntimeError):
    """A shard or combined table failed manifest/checksum validation."""


@dataclass(frozen=True)
class _Shard:
    """One validated-manifest shard (data not yet checksum-verified)."""

    name: str
    created: float
    rows: int
    data_path: Path
    manifest_path: Path
    checksum: str
    backend: str


@dataclass
class CombineReport:
    """What one :meth:`SweepStore.combine` call did."""

    generation: int
    rows: int
    folded_shards: int
    folded_rows: int
    quarantined: list[str] = field(default_factory=list)

    def to_plain(self) -> dict:
        return {
            "generation": self.generation,
            "rows": self.rows,
            "folded_shards": self.folded_shards,
            "folded_rows": self.folded_rows,
            "quarantined": list(self.quarantined),
        }


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_json_atomic(path: Path, document: dict) -> None:
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    tmp.write_text(json.dumps(document, sort_keys=True) + "\n")
    os.replace(tmp, path)


class SweepStore:
    """Columnar sweep-result store rooted at one directory.

    Shards and combined tables are compressed ``.npz`` files
    (:class:`~repro.sweepstore.backend.NpzBackend`).  ``grace_s`` is
    how old an invalid/incomplete artefact must be before
    :meth:`combine` treats it as crash debris rather than an ingest in
    progress.
    """

    def __init__(
        self,
        root: "str | os.PathLike",
        grace_s: float = 60.0,
    ) -> None:
        self.root = Path(root)
        self.shards_dir = self.root / "shards"
        self.combined_dir = self.root / "combined"
        self.quarantine_dir = self.root / "quarantine"
        self.backend = NpzBackend()
        self.grace_s = grace_s
        # One-generation read cache: (table name, size, mtime_ns) -> the
        # loaded canonical Table.  Million-row stores answer repeated
        # queries/joins without re-reading and re-checksumming the
        # combined file; any replacement of the file (a new combine, or
        # corruption overwriting it) changes the stat key and misses.
        self._combined_cache: "tuple[tuple, Table] | None" = None

    # -- ingest ------------------------------------------------------------------

    def append(self, rows: "Sequence[dict] | Table") -> "str | None":
        """Write one immutable shard of rows; returns the shard name.

        Empty input writes nothing (``None``).  The shard becomes
        visible to readers atomically: its manifest is published last,
        and readers ignore everything without a valid manifest.
        """
        table = rows if isinstance(rows, Table) else Table.from_rows(rows)
        if not table.num_rows:
            return None
        self.shards_dir.mkdir(parents=True, exist_ok=True)
        name, manifest_path = self._reserve_shard_name()
        data_path = self.shards_dir / f"{name}{self.backend.extension}"
        tmp = self.shards_dir / f".{data_path.name}.tmp-{os.getpid()}"
        try:
            self.backend.write(str(tmp), table)
            os.replace(tmp, data_path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        manifest = {
            "schema": SCHEMA_VERSION,
            "name": name,
            "data": data_path.name,
            "backend": self.backend.name,
            "rows": table.num_rows,
            "checksum": _sha256_file(data_path),
            "created": time.time(),
        }
        _write_json_atomic(manifest_path, manifest)
        return name

    def _reserve_shard_name(self) -> tuple[str, Path]:
        """Claim a unique shard name via O_EXCL on its manifest path."""
        pid = os.getpid()
        while True:
            name = f"shard-{pid}-{next(_SHARD_SEQ):06d}"
            manifest_path = self.shards_dir / f"{name}{MANIFEST_SUFFIX}"
            try:
                fd = os.open(
                    manifest_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
            except FileExistsError:
                continue  # previous run of this pid; take the next seq
            os.close(fd)
            return name, manifest_path

    # -- quarantine --------------------------------------------------------------

    def _quarantine(self, path: Path) -> "str | None":
        """Move ``path`` into quarantine under a collision-free name."""
        if not path.exists():
            return None
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        stem, suffix = path.name, ""
        if "." in path.name:
            stem, _, rest = path.name.partition(".")
            suffix = f".{rest}"
        for seq in itertools.count(1):
            target = self.quarantine_dir / f"{stem}.{os.getpid()}.{seq}{suffix}"
            try:
                fd = os.open(target, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.close(fd)
            try:
                os.replace(path, target)
            except FileNotFoundError:
                target.unlink(missing_ok=True)  # a racer moved it first
                return None
            return target.name

    # -- scanning ----------------------------------------------------------------

    def _scan_shards(self) -> tuple[list[_Shard], list[Path]]:
        """Valid-manifest shards plus the paths that failed validation."""
        shards: list[_Shard] = []
        invalid: list[Path] = []
        if not self.shards_dir.is_dir():
            return shards, invalid
        for manifest_path in sorted(self.shards_dir.glob(f"*{MANIFEST_SUFFIX}")):
            shard = self._parse_manifest(manifest_path)
            if shard is None:
                invalid.append(manifest_path)
            else:
                shards.append(shard)
        shards.sort(key=lambda shard: (shard.created, shard.name))
        return shards, invalid

    def _parse_manifest(self, manifest_path: Path) -> "_Shard | None":
        try:
            document = json.loads(manifest_path.read_text())
            name = document["name"]
            data = document["data"]
            shard = _Shard(
                name=str(name),
                created=float(document["created"]),
                rows=int(document["rows"]),
                data_path=manifest_path.parent / str(data),
                manifest_path=manifest_path,
                checksum=str(document["checksum"]),
                backend=str(document["backend"]),
            )
        except (OSError, ValueError, KeyError, TypeError):
            return None
        if int(document.get("schema", -1)) != SCHEMA_VERSION:
            return None
        if not shard.data_path.is_file():
            return None
        return shard

    def _load_shard(self, shard: _Shard) -> Table:
        """Read and verify one shard; raises :class:`CorruptShard`."""
        if _sha256_file(shard.data_path) != shard.checksum:
            raise CorruptShard(
                f"checksum mismatch in sweep shard {shard.name}"
            )
        table = self.backend.read(str(shard.data_path))
        if table.num_rows != shard.rows:
            raise CorruptShard(
                f"row count mismatch in sweep shard {shard.name}: "
                f"manifest says {shard.rows}, data holds {table.num_rows}"
            )
        return table

    def _stale(self, path: Path) -> bool:
        """Old enough that an incomplete artefact means a crashed writer
        (the grace-window rule of :mod:`repro.cleanup`)."""
        from ..cleanup import is_stale

        return is_stale(path, grace_s=self.grace_s)

    # -- the canonical table -----------------------------------------------------

    def _current_pointer(self) -> "dict | None":
        try:
            document = json.loads((self.combined_dir / _CURRENT).read_text())
            int(document["generation"])
            str(document["table"])
        except (OSError, ValueError, KeyError, TypeError):
            return None
        return document

    def _load_combined(self) -> tuple[int, Table, list[str]]:
        """The live canonical generation (0 and empty before any combine).

        A corrupt canonical table is quarantined and rebuilt from
        whatever shards remain — the quarantine evidence survives, but
        the store keeps serving rather than wedging every reader.
        """
        pointer = self._current_pointer()
        if pointer is None:
            return 0, Table.empty(), []
        generation = int(pointer["generation"])
        cache_key = self._combined_stat_key(str(pointer["table"]))
        if cache_key is not None and self._combined_cache is not None:
            cached_key, cached_table = self._combined_cache
            if cached_key == cache_key:
                return generation, cached_table, []
        manifest_path = self.combined_dir / f"{pointer['table']}{MANIFEST_SUFFIX}"
        shard = self._parse_manifest(manifest_path)
        quarantined: list[str] = []
        if shard is not None:
            try:
                table = self._load_shard(shard)
            except CorruptShard:
                pass
            else:
                if cache_key is not None:
                    self._combined_cache = (cache_key, table)
                return generation, table, quarantined
        self._combined_cache = None
        for path in (
            self.combined_dir / str(pointer["table"]),
            manifest_path,
        ):
            moved = self._quarantine(path)
            if moved:
                quarantined.append(moved)
        return generation, Table.empty(), quarantined

    def _combined_stat_key(self, table_name: str) -> "tuple | None":
        """Identity of the combined data file as it sits on disk now."""
        try:
            stat = (self.combined_dir / table_name).stat()
        except OSError:
            return None
        return (table_name, stat.st_size, stat.st_mtime_ns)

    def combine(self) -> CombineReport:
        """Fold pending shards into the next canonical generation.

        Idempotent: with nothing new to fold it is a no-op; re-running
        after any crash (including one mid-combine) converges to the
        same canonical table, because dedup keys on row identity.
        Also the store's janitor: definitively corrupt shards are
        quarantined immediately, and incomplete write debris older
        than ``grace_s`` is quarantined as crash evidence.
        """
        self.combined_dir.mkdir(parents=True, exist_ok=True)
        generation, current, quarantined = self._load_combined()
        shards, invalid = self._scan_shards()

        tables: list[Table] = [current]
        folded: list[_Shard] = []
        folded_rows = 0
        for shard in shards:
            try:
                table = self._load_shard(shard)
            except (CorruptShard, ValueError):
                # Checksum/decode failures are definitive — no grace.
                for path in (shard.data_path, shard.manifest_path):
                    moved = self._quarantine(path)
                    if moved:
                        quarantined.append(moved)
                continue
            tables.append(table)
            folded.append(shard)
            folded_rows += table.num_rows

        quarantined.extend(self._sweep_debris(shards))
        for manifest_path in invalid:
            if self._stale(manifest_path):
                moved = self._quarantine(manifest_path)
                if moved:
                    quarantined.append(moved)

        if not folded and self._current_pointer() is not None:
            return CombineReport(
                generation=generation,
                rows=current.num_rows,
                folded_shards=0,
                folded_rows=0,
                quarantined=quarantined,
            )

        merged = concat_tables(tables).canonical()
        new_generation = self._next_generation(generation)
        table_name = f"table-{new_generation:06d}{self.backend.extension}"
        data_path = self.combined_dir / table_name
        tmp = self.combined_dir / f".{table_name}.tmp-{os.getpid()}"
        try:
            self.backend.write(str(tmp), merged)
            os.replace(tmp, data_path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        _write_json_atomic(
            self.combined_dir / f"{table_name}{MANIFEST_SUFFIX}",
            {
                "schema": SCHEMA_VERSION,
                "name": f"table-{new_generation:06d}",
                "data": table_name,
                "backend": self.backend.name,
                "rows": merged.num_rows,
                "checksum": _sha256_file(data_path),
                "created": time.time(),
            },
        )
        # The pointer flip is the commit point: everything before it is
        # invisible, everything after it is cleanup.
        _write_json_atomic(
            self.combined_dir / _CURRENT,
            {"schema": SCHEMA_VERSION, "generation": new_generation,
             "table": table_name},
        )
        cache_key = self._combined_stat_key(table_name)
        if cache_key is not None:
            self._combined_cache = (cache_key, merged)
        for shard in folded:
            shard.data_path.unlink(missing_ok=True)
            shard.manifest_path.unlink(missing_ok=True)
        self._drop_stale_generations(new_generation)
        return CombineReport(
            generation=new_generation,
            rows=merged.num_rows,
            folded_shards=len(folded),
            folded_rows=folded_rows,
            quarantined=quarantined,
        )

    def _sweep_debris(self, shards: list[_Shard]) -> list[str]:
        """Quarantine stale unreferenced files in ``shards/`` (janitor)."""
        referenced = {shard.manifest_path.name for shard in shards}
        referenced.update(shard.data_path.name for shard in shards)
        moved: list[str] = []
        if not self.shards_dir.is_dir():
            return moved
        for path in sorted(self.shards_dir.iterdir()):
            if path.name in referenced or path.name.endswith(MANIFEST_SUFFIX):
                continue  # invalid manifests are handled by the caller
            if self._stale(path):
                name = self._quarantine(path)
                if name:
                    moved.append(name)
        return moved

    def _next_generation(self, current: int) -> int:
        """One past both CURRENT and any crashed-combine orphan tables."""
        highest = current
        for path in self.combined_dir.glob("table-*"):
            stem = path.name.split(".")[0]
            try:
                highest = max(highest, int(stem.split("-")[1]))
            except (IndexError, ValueError):
                continue
        return highest + 1

    def _drop_stale_generations(self, live: int) -> None:
        live_stem = f"table-{live:06d}"
        for path in sorted(self.combined_dir.glob("table-*")):
            if not path.name.startswith(live_stem):
                path.unlink(missing_ok=True)

    # -- queries -----------------------------------------------------------------

    def table(self, combined_only: bool = False) -> Table:
        """The canonical view: combined generation + unfolded shards.

        Fresh shards are visible to queries without waiting for a
        combine; ``combined_only`` restricts to the last committed
        generation (what a concurrent combiner has published).
        """
        _, current, _ = self._load_combined()
        if combined_only:
            return current
        tables = [current]
        shards, _ = self._scan_shards()
        for shard in shards:
            try:
                tables.append(self._load_shard(shard))
            except (CorruptShard, ValueError):
                continue  # combine() will quarantine it
        if len(tables) == 1:
            return current  # combine() already published it canonical
        return concat_tables(tables).canonical()

    def query(
        self,
        where: "Sequence[tuple] | None" = None,
        columns: "Sequence[str] | None" = None,
        combined_only: bool = False,
        limit: "int | None" = None,
    ) -> "Table | dict":
        """Filtered (and optionally projected) canonical rows.

        ``where`` is a sequence of ``(column, op, value)`` predicates
        (see :func:`~repro.sweepstore.schema.apply_filters`).  With
        ``columns`` the result is a ``{name: array}`` projection;
        otherwise a full-schema :class:`Table`.
        """
        table = apply_filters(self.table(combined_only=combined_only), where)
        if limit is not None and table.num_rows > limit:
            table = table.take(np.arange(limit))
        if columns is not None:
            return table.select(columns)
        return table

    def stats(self) -> dict:
        """Shard/row/generation counts (cheap: manifests only)."""
        shards, invalid = self._scan_shards()
        pointer = self._current_pointer()
        combined_rows = 0
        if pointer is not None:
            manifest = self._parse_manifest(
                self.combined_dir / f"{pointer['table']}{MANIFEST_SUFFIX}"
            )
            combined_rows = manifest.rows if manifest is not None else 0
        quarantined = (
            len(list(self.quarantine_dir.iterdir()))
            if self.quarantine_dir.is_dir()
            else 0
        )
        return {
            "root": str(self.root),
            "backend": self.backend.name,
            "generation": int(pointer["generation"]) if pointer else 0,
            "combined_rows": combined_rows,
            "pending_shards": len(shards),
            "pending_rows": sum(shard.rows for shard in shards),
            "invalid_manifests": len(invalid),
            "quarantined": quarantined,
        }
