"""Serialisation of sweep tables: one compressed ``.npz`` per file.

The backend round-trips the full :data:`~repro.sweepstore.schema.COLUMNS`
schema losslessly — float64 bits, int64 values and UTF-8 strings come
back exactly — so canonical fingerprints depend only on the rows.  A
shard's manifest records the format (``"npz"``) that wrote its data
file.
"""

from __future__ import annotations

import numpy as np

from .schema import COLUMNS, INT64, STRING, Table

__all__ = ["NpzBackend"]


class NpzBackend:
    """One compressed ``.npz`` per shard or combined table.

    Strings are stored as NumPy unicode (``U``) arrays — fixed-width
    in the file but decoded back to Python ``str`` in ``object``
    columns, so in-memory tables are identical to the ones written.
    """

    name = "npz"
    extension = ".npz"

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
        """Read one data file; anything but ``.npz`` is an error naming
        the file (never a ``ValueError``, which readers skip as a torn
        write), so a foreign file is never mistaken for an empty one."""
        if not path.endswith(self.extension):
            raise RuntimeError(
                f"cannot read sweep data file {path!r}: only {self.extension} "
                "shards are supported"
            )
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
