"""Columnar sweep store: design-space ETL at million-point scale.

Each (config-hash, experiment, technique, solver, fault-set, seed,
cell) identity is one typed row.  See :mod:`repro.sweepstore.schema`
for the column schema, :mod:`repro.sweepstore.store` for the shard /
combine / query lifecycle, :mod:`repro.sweepstore.ingest` for row
extraction from experiment artifacts, and ``docs/sweepstore.md`` for
the operational story.
"""

from .ingest import SweepSpill, rows_from_result
from .schema import (
    COLUMNS,
    IDENTITY,
    Table,
    apply_filters,
    concat_tables,
    join_tables,
    parse_predicate,
)
from .store import CombineReport, CorruptShard, SweepStore

__all__ = [
    "COLUMNS",
    "IDENTITY",
    "CombineReport",
    "CorruptShard",
    "SweepSpill",
    "SweepStore",
    "Table",
    "apply_filters",
    "concat_tables",
    "join_tables",
    "parse_predicate",
    "rows_from_result",
]
