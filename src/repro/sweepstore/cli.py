"""``python -m repro sweep`` — front door to the columnar sweep store.

Subcommands::

    repro sweep ingest  STORE RESULT.json [...]   # result docs -> one shard
    repro sweep combine STORE                     # fold shards, dedup, commit
    repro sweep query   STORE [--where ...] [--columns ...] [--json]
    repro sweep stats   STORE                     # shard/row/generation counts

``ingest`` consumes the exact ``--json`` documents the batch CLI and
the service emit; ``query`` prints tab-separated rows (or JSON with
``--json``) from the canonical view — the committed generation plus
any not-yet-folded shards.
"""

from __future__ import annotations

import argparse
import json
import sys

from .ingest import rows_from_result
from .schema import COLUMNS, parse_predicate
from .store import SweepStore

__all__ = ["sweep_main"]


def _add_store_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("store", help="sweep store directory")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro sweep",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    ingest = commands.add_parser(
        "ingest", help="extract rows from result JSON documents into a shard"
    )
    _add_store_argument(ingest)
    ingest.add_argument(
        "results", nargs="+", metavar="RESULT",
        help="result JSON files ('-' reads one document from stdin)",
    )
    ingest.add_argument(
        "--solver", default=None,
        help="override the solver column (for documents predating it)",
    )
    ingest.add_argument(
        "--fault-set", default=None,
        help="override the fault_set column (for documents predating it)",
    )
    ingest.add_argument(
        "--set", dest="extra", action="append", default=[], metavar="COL=VAL",
        help="fix a column on every ingested row, e.g. --set array_size=512",
    )

    combine = commands.add_parser(
        "combine", help="fold shards into the canonical deduplicated table"
    )
    _add_store_argument(combine)
    combine.add_argument(
        "--grace", type=float, default=60.0, metavar="S",
        help="age before incomplete write debris counts as crash evidence",
    )

    query = commands.add_parser("query", help="filter/project canonical rows")
    _add_store_argument(query)
    query.add_argument(
        "--where", action="append", default=[], metavar="PRED",
        help="predicate like technique==DRVR+PR or fault_rate<=0.001 "
        "(repeatable; AND-combined)",
    )
    query.add_argument(
        "--columns", default=None, metavar="A,B,C",
        help="comma-separated column projection (default: all)",
    )
    query.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="print at most N rows",
    )
    query.add_argument(
        "--combined-only", action="store_true",
        help="ignore shards not yet folded by combine",
    )
    query.add_argument(
        "--json", action="store_true",
        help="emit one JSON object per row instead of a TSV table",
    )

    stats = commands.add_parser("stats", help="store health counters")
    _add_store_argument(stats)
    stats.add_argument("--json", action="store_true")
    return parser


def _parse_extra(pairs: list[str]) -> dict:
    known = {name for name, _ in COLUMNS}
    extra: dict = {}
    for pair in pairs:
        column, sep, value = pair.partition("=")
        if not sep or not column:
            raise SystemExit(f"--set expects COL=VAL, got {pair!r}")
        if column not in known:
            raise SystemExit(f"--set names unknown sweep column {column!r}")
        extra[column] = value
    return extra


def _load_document(path: str) -> dict:
    text = sys.stdin.read() if path == "-" else open(path).read()
    document = json.loads(text)
    if not isinstance(document, dict):
        raise SystemExit(f"{path}: expected a result JSON object")
    return document


def _cmd_ingest(args: argparse.Namespace) -> int:
    store = SweepStore(args.store)
    extra = _parse_extra(args.extra)
    rows: list[dict] = []
    for path in args.results:
        extracted = rows_from_result(
            _load_document(path),
            solver=args.solver,
            fault_set=args.fault_set,
            extra=extra,
        )
        if not extracted:
            print(f"{path}: no ingestable rows", file=sys.stderr)
        rows.extend(extracted)
    shard = store.append(rows)
    if shard is None:
        print("nothing to ingest")
        return 1
    print(f"ingested {len(rows)} rows into shard {shard}")
    return 0


def _cmd_combine(args: argparse.Namespace) -> int:
    store = SweepStore(args.store, grace_s=args.grace)
    report = store.combine()
    print(
        f"generation {report.generation}: {report.rows} rows "
        f"({report.folded_shards} shards / {report.folded_rows} rows folded"
        + (f", {len(report.quarantined)} artefacts quarantined"
           if report.quarantined else "")
        + ")"
    )
    return 0


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _cmd_query(args: argparse.Namespace) -> int:
    store = SweepStore(args.store)
    where = [parse_predicate(text) for text in args.where]
    columns = (
        [name.strip() for name in args.columns.split(",") if name.strip()]
        if args.columns
        else [name for name, _ in COLUMNS]
    )
    projection = store.query(
        where=where,
        columns=columns,
        combined_only=args.combined_only,
        limit=args.limit,
    )
    arrays = [projection[name] for name in columns]
    count = len(arrays[0]) if arrays else 0
    if args.json:
        for values in zip(*arrays):
            print(json.dumps(_plain_row(dict(zip(columns, values))), sort_keys=True))
    else:
        print("\t".join(columns))
        for values in zip(*arrays):
            print("\t".join(_format_cell(value) for value in values))
    print(f"{count} rows", file=sys.stderr)
    return 0


def _plain_row(row: dict) -> dict:
    plain = {}
    for name, value in row.items():
        if hasattr(value, "item"):
            value = value.item()
        if isinstance(value, float) and value != value:
            value = None  # NaN has no JSON spelling
        plain[name] = value
    return plain


def _cmd_stats(args: argparse.Namespace) -> int:
    store = SweepStore(args.store)
    stats = store.stats()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
    else:
        for key, value in stats.items():
            print(f"{key}: {value}")
    return 0


def sweep_main(argv: "list[str] | None" = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "ingest": _cmd_ingest,
        "combine": _cmd_combine,
        "query": _cmd_query,
        "stats": _cmd_stats,
    }[args.command]
    try:
        return handler(args)
    except (ValueError, RuntimeError) as exc:  # incl. unreadable data files
        print(f"error: {exc}", file=sys.stderr)
        return 2
