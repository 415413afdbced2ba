"""Fixed columnar schema for design-space sweep results.

One sweep **row** is one experiment cell: the value of one measured
quantity for one (config-hash, experiment, technique, solver,
fault-set, seed, cell) identity.  The schema is deliberately fixed and
typed — the npz backend serialises exactly these columns in exactly
this order, which is what makes query results byte-comparable across
stores.

Wide metrics (latency, endurance, fail fraction...) get their own
columns because the dominant producer — the fault-sweep experiment —
emits all of them per cell; anything else lands in the generic
``value`` column with the metric name folded into ``cell``.

:class:`Table` is the in-memory exchange format: a dict of NumPy
columns (``object`` dtype holding ``str`` for string columns, so
values survive the npz round-trip unchanged).  It knows how to
canonicalise itself — last-writer-wins dedup over the identity key
followed by a total-order sort — so a combined table's byte
fingerprint is a pure function of its logical content, independent of
ingest order.
"""

from __future__ import annotations

import hashlib
import math
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "COLUMNS",
    "IDENTITY",
    "STRING",
    "INT64",
    "FLOAT64",
    "Table",
    "concat_tables",
    "join_tables",
]

STRING = "string"
INT64 = "int64"
FLOAT64 = "float64"

#: (name, kind) in serialisation order.  Append-only: adding a column
#: is a schema-version bump in the shard envelope, never a reorder.
COLUMNS: tuple[tuple[str, str], ...] = (
    ("config_hash", STRING),
    ("experiment", STRING),
    ("technique", STRING),
    ("solver", STRING),
    ("fault_set", STRING),
    ("seed", INT64),
    ("cell", STRING),
    ("fault_rate", FLOAT64),
    ("array_size", INT64),
    ("latency_us", FLOAT64),
    ("min_endurance", FLOAT64),
    ("fail_fraction", FLOAT64),
    ("stuck_fraction", FLOAT64),
    ("value", FLOAT64),
    ("wall_s", FLOAT64),
)

#: Cell identity: the dedup key for incremental combines.  Re-running
#: a sweep produces rows with equal identity, and the combiner keeps
#: exactly one (the last written).
IDENTITY: tuple[str, ...] = (
    "config_hash",
    "experiment",
    "technique",
    "solver",
    "fault_set",
    "seed",
    "cell",
)

_KINDS: dict[str, str] = dict(COLUMNS)

#: Fill-in for a row that does not provide a column.
_DEFAULTS = {STRING: "", INT64: -1, FLOAT64: float("nan")}


def _coerce_column(name: str, kind: str, values: Sequence) -> np.ndarray:
    if kind == STRING:
        out = np.empty(len(values), dtype=object)
        for i, value in enumerate(values):
            out[i] = str(value)
        return out
    if kind == INT64:
        return np.asarray([int(v) for v in values], dtype=np.int64)
    return np.asarray([float(v) for v in values], dtype=np.float64)


class Table:
    """A full-schema columnar batch of sweep rows.

    Always carries every schema column; projection produces plain
    ``{name: array}`` dicts (see :meth:`select`) rather than partial
    tables, so a ``Table`` in hand is always safe to store or combine.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: dict[str, np.ndarray]) -> None:
        missing = [name for name, _ in COLUMNS if name not in columns]
        if missing:
            raise ValueError(f"table is missing schema columns {missing}")
        lengths = {len(columns[name]) for name, _ in COLUMNS}
        if len(lengths) > 1:
            raise ValueError(f"ragged table: column lengths {sorted(lengths)}")
        self.columns = {name: columns[name] for name, _ in COLUMNS}

    # -- construction ------------------------------------------------------------

    @classmethod
    def empty(cls) -> "Table":
        columns = {}
        for name, kind in COLUMNS:
            if kind == STRING:
                columns[name] = np.empty(0, dtype=object)
            elif kind == INT64:
                columns[name] = np.empty(0, dtype=np.int64)
            else:
                columns[name] = np.empty(0, dtype=np.float64)
        return cls(columns)

    @classmethod
    def from_rows(cls, rows: Iterable[dict]) -> "Table":
        """Build a table from row dicts; absent columns take defaults.

        Unknown keys raise — a typo'd column silently dropped would be
        a data-loss bug invisible until query time.
        """
        rows = list(rows)
        for row in rows:
            unknown = [key for key in row if key not in _KINDS]
            if unknown:
                raise ValueError(f"unknown sweep columns {unknown}")
        columns = {}
        for name, kind in COLUMNS:
            default = _DEFAULTS[kind]
            columns[name] = _coerce_column(
                name, kind, [row.get(name, default) for row in rows]
            )
        return cls(columns)

    # -- basics ------------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return len(self.columns[COLUMNS[0][0]])

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    def take(self, indices: np.ndarray) -> "Table":
        return Table(
            {name: array[indices] for name, array in self.columns.items()}
        )

    def select(self, names: Sequence[str]) -> dict[str, np.ndarray]:
        """Column projection (plain dict — intentionally not a Table)."""
        unknown = [name for name in names if name not in _KINDS]
        if unknown:
            raise ValueError(f"unknown sweep columns {unknown}")
        return {name: self.columns[name] for name in names}

    def to_rows(self) -> list[dict]:
        names = [name for name, _ in COLUMNS]
        arrays = [self.columns[name] for name in names]
        return [
            dict(zip(names, values)) for values in zip(*arrays)
        ] if self.num_rows else []

    def filter(self, mask: np.ndarray) -> "Table":
        return self.take(np.flatnonzero(mask))

    # -- canonicalisation --------------------------------------------------------

    def _sort_codes(self, name: str) -> np.ndarray:
        """A column as lexsort-able integer codes (strings get ranks)."""
        array = self.columns[name]
        if _KINDS[name] == STRING:
            # np.unique returns sorted uniques; the inverse indices are
            # therefore rank codes preserving lexicographic order.
            _, codes = np.unique(np.asarray(array, dtype=str), return_inverse=True)
            return codes
        return array

    def canonical(self) -> "Table":
        """Deduplicate (identity key, last row wins) and totally order.

        The result is a pure function of logical content: any
        permutation of the same rows canonicalises to the same table,
        which is what makes combine idempotent and store fingerprints
        comparable.
        """
        if not self.num_rows:
            return self
        last: dict[tuple, int] = {}
        for i, key in enumerate(
            zip(*(self.columns[name] for name in IDENTITY))
        ):
            last[key] = i
        kept = np.fromiter(last.values(), dtype=np.int64, count=len(last))
        kept.sort()  # stable pre-order before the canonical sort
        table = self.take(kept) if len(kept) < self.num_rows else self
        # lexsort treats its *last* key as primary: feed columns in
        # reverse schema order so config_hash is the primary key.
        order = np.lexsort(
            tuple(table._sort_codes(name) for name, _ in reversed(COLUMNS))
        )
        return table.take(order)

    def fingerprint(self) -> str:
        """SHA-256 of the canonical byte serialisation of this table.

        Equal fingerprints mean byte-identical query results whatever
        store the rows travelled through: strings are hashed as UTF-8,
        ints and floats as little-endian fixed-width bytes (a float64
        survives the npz round-trip bit-exactly).
        """
        table = self.canonical()
        digest = hashlib.sha256()
        digest.update(f"sweeptable:v1:rows={table.num_rows}".encode())
        for name, kind in COLUMNS:
            digest.update(f"\x00col:{name}:{kind}\x00".encode())
            array = table.columns[name]
            if kind == STRING:
                for value in array:
                    digest.update(value.encode("utf-8", "surrogatepass"))
                    digest.update(b"\x1f")
            elif kind == INT64:
                digest.update(np.ascontiguousarray(array, dtype="<i8").tobytes())
            else:
                digest.update(np.ascontiguousarray(array, dtype="<f8").tobytes())
        return digest.hexdigest()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return self.fingerprint() == other.fingerprint()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table(rows={self.num_rows})"


def concat_tables(tables: Sequence[Table]) -> Table:
    tables = [table for table in tables if table.num_rows]
    if not tables:
        return Table.empty()
    if len(tables) == 1:
        return tables[0]
    return Table(
        {
            name: np.concatenate([table.columns[name] for table in tables])
            for name, _ in COLUMNS
        }
    )


# -- predicate filters -----------------------------------------------------------

_OPS: dict[str, Callable[[np.ndarray, object], np.ndarray]] = {
    "==": lambda col, v: col == v,
    "!=": lambda col, v: col != v,
    "<=": lambda col, v: col <= v,
    ">=": lambda col, v: col >= v,
    "<": lambda col, v: col < v,
    ">": lambda col, v: col > v,
    "in": lambda col, v: np.isin(col, list(v)),
}


def _typed(name: str, value):
    kind = _KINDS[name]
    if kind == STRING:
        return str(value)
    if kind == INT64:
        return int(value)
    return float(value)


def apply_filters(table: Table, where: "Sequence[tuple] | None") -> Table:
    """Filter by ``(column, op, value)`` predicates (AND-combined).

    Ops: ``== != < <= > >= in``.  Values are coerced to the column's
    kind so CLI-sourced strings compare correctly against numerics.
    """
    if not where:
        return table
    mask = np.ones(table.num_rows, dtype=bool)
    for column, op, value in where:
        if column not in _KINDS:
            raise ValueError(f"unknown sweep column {column!r}")
        if op not in _OPS:
            raise ValueError(f"unknown filter op {op!r} (have {sorted(_OPS)})")
        if op == "in":
            value = [_typed(column, item) for item in value]
        else:
            value = _typed(column, value)
        array = table.columns[column]
        if _KINDS[column] == STRING:
            array = np.asarray(array, dtype=str)
        mask &= np.asarray(_OPS[op](array, value), dtype=bool)
    return table.filter(mask)


def parse_predicate(text: str) -> tuple[str, str, object]:
    """Parse a CLI predicate like ``fault_rate<=0.001`` or ``solver==batched``.

    ``=`` is accepted as a spelling of ``==``.
    """
    for op in ("==", "!=", "<=", ">=", "<", ">", "="):
        if op in text:
            column, _, value = text.partition(op)
            column, value = column.strip(), value.strip()
            if not column or not value:
                break
            return column, "==" if op == "=" else op, value
    raise ValueError(
        f"cannot parse predicate {text!r} (expected COLUMN<OP>VALUE "
        "with OP one of ==, !=, <, <=, >, >=)"
    )


# -- joins -----------------------------------------------------------------------


def join_tables(
    left: Table,
    right: Table,
    on: Sequence[str],
    select_left: "Sequence[str] | None" = None,
    select_right: "Sequence[str] | None" = None,
    suffixes: tuple[str, str] = ("_l", "_r"),
) -> dict[str, list]:
    """Inner hash join of two tables on equal values of ``on`` columns.

    Returns plain ``{column: list}`` output: the join keys once, then
    the selected non-key columns of each side with ``suffixes`` applied
    on name collisions.  Row order is deterministic: left row order,
    then right row order within a key group.
    """
    for name in on:
        if name not in _KINDS:
            raise ValueError(f"unknown join column {name!r}")
    select_left = [n for n in (select_left or [n for n, _ in COLUMNS]) if n not in on]
    select_right = [n for n in (select_right or [n for n, _ in COLUMNS]) if n not in on]

    def out_name(name: str, side: int) -> str:
        other = select_right if side == 0 else select_left
        return name + suffixes[side] if name in other else name

    groups: dict[tuple, list[int]] = {}
    right_keys = (
        list(zip(*(right.columns[name] for name in on))) if right.num_rows else []
    )
    for i, key in enumerate(right_keys):
        groups.setdefault(key, []).append(i)

    out: dict[str, list] = {name: [] for name in on}
    for name in select_left:
        out[out_name(name, 0)] = []
    for name in select_right:
        out[out_name(name, 1)] = []
    left_keys = list(zip(*(left.columns[name] for name in on))) if left.num_rows else []
    for i, key in enumerate(left_keys):
        for j in groups.get(key, ()):
            for name, value in zip(on, key):
                out[name].append(value)
            for name in select_left:
                out[out_name(name, 0)].append(left.columns[name][i])
            for name in select_right:
                out[out_name(name, 1)].append(right.columns[name][j])
    return out


def finite(values: Iterable[float]) -> list[float]:
    """The finite entries of ``values`` (drops the NaN column fill)."""
    return [v for v in values if not math.isnan(v) and not math.isinf(v)]
