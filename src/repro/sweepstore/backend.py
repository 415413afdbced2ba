"""Serialisation backends for sweep tables: parquet, with an npz fallback.

The store is backend-agnostic: a shard's manifest records which
backend wrote its data file, so a store directory may legally mix
parquet and npz shards (e.g. ingested on machines with and without
pyarrow) and every reader dispatches per file.  Both backends
round-trip the full :data:`~repro.sweepstore.schema.COLUMNS` schema
losslessly — float64 bits, int64 values and UTF-8 strings come back
exactly — so canonical fingerprints never depend on which backend a
row travelled through.

pyarrow is an *optional* dependency: nothing in this module imports it
at module scope, and :func:`parquet_available` is the single gate every
caller (store, CLI, tests) consults.
"""

from __future__ import annotations

import numpy as np

from .schema import COLUMNS, INT64, STRING, Table

__all__ = [
    "NpzBackend",
    "ParquetBackend",
    "available_backends",
    "backend_for",
    "backend_for_data_file",
    "parquet_available",
]


def parquet_available() -> bool:
    """True when pyarrow (and its parquet module) imports cleanly."""
    try:
        import pyarrow.parquet  # noqa: F401
    except Exception:  # noqa: BLE001 - any import failure means "no"
        return False
    return True


class NpzBackend:
    """Always-available fallback: one compressed ``.npz`` per shard.

    Strings are stored as NumPy unicode (``U``) arrays — fixed-width
    in the file but decoded back to Python ``str`` in ``object``
    columns, so in-memory tables are identical to parquet-read ones.
    """

    name = "npz"
    extension = ".npz"

    @staticmethod
    def available() -> bool:
        return True

    def write(self, path: str, table: Table) -> None:
        arrays = {}
        for name, kind in COLUMNS:
            column = table.columns[name]
            if kind == STRING:
                arrays[name] = np.asarray(
                    [str(v) for v in column], dtype=str
                ) if len(column) else np.empty(0, dtype="U1")
            else:
                arrays[name] = column
        with open(path, "wb") as handle:
            np.savez_compressed(handle, **arrays)

    def read(self, path: str) -> Table:
        columns = {}
        with np.load(path, allow_pickle=False) as data:
            for name, kind in COLUMNS:
                array = data[name]
                if kind == STRING:
                    out = np.empty(len(array), dtype=object)
                    for i, value in enumerate(array.tolist()):
                        out[i] = str(value)
                    columns[name] = out
                elif kind == INT64:
                    columns[name] = np.asarray(array, dtype=np.int64)
                else:
                    columns[name] = np.asarray(array, dtype=np.float64)
        return Table(columns)


class ParquetBackend:
    """Columnar parquet shards via pyarrow (preferred when installed)."""

    name = "parquet"
    extension = ".parquet"

    @staticmethod
    def available() -> bool:
        return parquet_available()

    def write(self, path: str, table: Table) -> None:
        import pyarrow as pa
        import pyarrow.parquet as pq

        arrays = {}
        for name, kind in COLUMNS:
            column = table.columns[name]
            if kind == STRING:
                arrays[name] = pa.array(
                    [str(v) for v in column], type=pa.string()
                )
            elif kind == INT64:
                arrays[name] = pa.array(
                    np.asarray(column, dtype=np.int64), type=pa.int64()
                )
            else:
                arrays[name] = pa.array(
                    np.asarray(column, dtype=np.float64), type=pa.float64()
                )
        pq.write_table(pa.table(arrays), path)

    def read(self, path: str) -> Table:
        import pyarrow.parquet as pq

        data = pq.read_table(path, columns=[name for name, _ in COLUMNS])
        columns = {}
        for name, kind in COLUMNS:
            values = data.column(name).to_pylist()
            if kind == STRING:
                out = np.empty(len(values), dtype=object)
                for i, value in enumerate(values):
                    out[i] = "" if value is None else str(value)
                columns[name] = out
            elif kind == INT64:
                columns[name] = np.asarray(values, dtype=np.int64)
            else:
                columns[name] = np.asarray(
                    [float("nan") if v is None else v for v in values],
                    dtype=np.float64,
                )
        return Table(columns)


_BACKENDS = {NpzBackend.name: NpzBackend, ParquetBackend.name: ParquetBackend}
_EXTENSIONS = {
    NpzBackend.extension: NpzBackend,
    ParquetBackend.extension: ParquetBackend,
}


def available_backends() -> tuple[str, ...]:
    return tuple(
        name for name, cls in _BACKENDS.items() if cls.available()
    )


def backend_for(name: str) -> "NpzBackend | ParquetBackend":
    """Resolve a backend by name; ``"auto"`` prefers parquet.

    Raises ``ValueError`` for an unknown name or an installed-but-
    unavailable request (``parquet`` without pyarrow), so misconfigured
    ingests fail at the front door rather than at the first write.
    """
    if name == "auto":
        return ParquetBackend() if parquet_available() else NpzBackend()
    cls = _BACKENDS.get(name)
    if cls is None:
        raise ValueError(
            f"unknown sweep backend {name!r} "
            f"(choose from auto, {', '.join(_BACKENDS)})"
        )
    if not cls.available():
        raise ValueError(
            f"sweep backend {name!r} is not available (pyarrow not installed)"
        )
    return cls()


def backend_for_data_file(filename: str) -> "NpzBackend | ParquetBackend":
    """The backend that reads ``filename``, dispatched on its extension."""
    for extension, cls in _EXTENSIONS.items():
        if filename.endswith(extension):
            if not cls.available():
                raise ValueError(
                    f"cannot read {filename!r}: backend {cls.name!r} "
                    "is not available (pyarrow not installed)"
                )
            return cls()
    raise ValueError(f"unrecognised sweep data file {filename!r}")
