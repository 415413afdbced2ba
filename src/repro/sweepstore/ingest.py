"""Row extraction: experiment artifacts -> typed sweep rows.

Two extraction modes:

* **Wide rows** for the fault-sweep payload family (``margins`` keyed
  ``"<scheme> @ <rate>"`` with per-cell metric dicts): one row per
  (scheme, fault-rate) cell with the latency/endurance/fail-fraction
  metric columns filled — the shape the design-space queries join on.
* **Instance rows** for Monte Carlo payloads (``mc_instances`` keyed
  ``"<scheme> @ <rate> # <instance>"``): one row per (config, seed,
  instance) with the same wide metric columns, the instance id carried
  in ``cell`` — so ``repro sweep query`` can re-aggregate percentile
  bands across runs and configurations.
* **Long rows** for everything else: numeric payload leaves flattened
  into (``cell`` = dotted path, ``value`` = float) rows, capped so a
  payload carrying full voltage matrices cannot explode a shard.

Both accept either a live
:class:`~repro.engine.artifact.ExperimentResult` or its ``to_plain()``
JSON document, so the CLI can ingest ``--json`` files written by batch
runs and the service can spill results it just computed through one
code path.

:class:`SweepSpill` is the serve-plane hook: a small thread-safe row
buffer in front of :meth:`SweepStore.append`, flushing a shard every
``flush_rows`` rows (and on close/drain), so a long-lived service
emits a bounded number of well-filled shards instead of one per
request.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any

from .store import SweepStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.artifact import ExperimentResult

__all__ = ["SweepSpill", "rows_from_result"]

#: Fault-sweep metric keys that get dedicated wide columns.
_WIDE_METRICS = (
    "latency_us",
    "min_endurance",
    "fail_fraction",
    "stuck_fraction",
)

#: Generic-extraction bound: payload cells beyond this are dropped
#: (callers learn via the returned row count; the cap keeps a payload
#: embedding a full array map from producing megarow shards).
MAX_GENERIC_CELLS = 10_000


def _as_document(result: "ExperimentResult | dict") -> dict:
    if isinstance(result, dict):
        meta = result.get("meta", {})
        return {
            "experiment": result.get("experiment", meta.get("experiment", "")),
            "meta": meta,
            "payload": result.get("payload", {}),
        }
    return {
        "experiment": result.name,
        "meta": result.meta(),
        "payload": result.payload,
    }


def _float(value: Any) -> "float | None":
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return float(value)
    try:
        import numpy as np

        if isinstance(value, np.generic):
            return float(value)
    except Exception:  # noqa: BLE001 - numpy always present in practice
        pass
    return None


def rows_from_result(
    result: "ExperimentResult | dict",
    solver: "str | None" = None,
    fault_set: "str | None" = None,
    extra: "dict | None" = None,
) -> list[dict]:
    """Sweep rows for one experiment result (or its JSON document).

    ``solver``/``fault_set`` override what the document's metadata
    carries (the service passes the plan's resolved values; a CLI
    ingest of an old JSON file may need to supply them explicitly).
    ``extra`` merges fixed column values into every row — e.g.
    ``{"array_size": 512}`` for a sweep whose config is known out of
    band.
    """
    document = _as_document(result)
    meta = document["meta"]
    payload = document["payload"]
    base = {
        "config_hash": str(meta.get("config_hash", "")),
        "experiment": str(document["experiment"]),
        "solver": str(
            solver
            if solver is not None
            else meta.get("solver", "reference") or "reference"
        ),
        "fault_set": str(
            fault_set
            if fault_set is not None
            else meta.get("fault_set", "none") or "none"
        ),
        "seed": int(meta.get("seed", 0)),
        "wall_s": float(meta.get("wall_s", float("nan"))),
    }
    if extra:
        base.update(extra)
    if isinstance(payload, dict) and isinstance(payload.get("margins"), dict):
        rows = _wide_rows(base, payload)
        if rows:
            return rows
    if isinstance(payload, dict) and isinstance(
        payload.get("mc_instances"), dict
    ):
        rows = _mc_rows(base, payload)
        if rows:
            return rows
    return _generic_rows(base, payload)


def _wide_rows(base: dict, payload: dict) -> list[dict]:
    """One row per fault-sweep (scheme, rate) margin cell."""
    rows: list[dict] = []
    for key, metrics in payload["margins"].items():
        if not isinstance(metrics, dict):
            continue
        scheme, sep, rate_text = str(key).partition(" @ ")
        row = dict(base)
        row["technique"] = scheme if sep else str(key)
        if sep:
            try:
                rate = float(rate_text)
            except ValueError:
                rate = float("nan")
            row["fault_rate"] = rate
            row["cell"] = f"{scheme}@{rate_text}"
        else:
            row["cell"] = str(key)
        filled = False
        for metric in _WIDE_METRICS:
            value = _float(metrics.get(metric))
            if value is not None:
                row[metric] = value
                filled = True
        if filled:
            rows.append(row)
    return rows


def _mc_rows(base: dict, payload: dict) -> list[dict]:
    """One row per Monte Carlo (scheme, rate, instance) margin cell.

    Keys follow ``"<scheme> @ <rate> # <instance>"``; the instance id
    lands in ``cell`` (``"<scheme>@<rate>#i<instance>"``), keeping the
    (config_hash, experiment, technique, solver, fault_set, seed, cell)
    identity unique per instance so dedup folds re-ingests, not
    instances.
    """
    rows: list[dict] = []
    for key, metrics in payload["mc_instances"].items():
        if not isinstance(metrics, dict):
            continue
        head, sep, instance_text = str(key).partition(" # ")
        if not sep:
            continue
        scheme, at, rate_text = head.partition(" @ ")
        if not at:
            continue
        try:
            rate = float(rate_text)
        except ValueError:
            rate = float("nan")
        row = dict(base)
        row["technique"] = scheme
        row["fault_rate"] = rate
        row["cell"] = f"{scheme}@{rate_text}#i{instance_text.strip()}"
        filled = False
        for metric in _WIDE_METRICS:
            value = _float(metrics.get(metric))
            if value is not None:
                row[metric] = value
                filled = True
        if filled:
            rows.append(row)
    return rows


def _generic_rows(base: dict, payload: Any) -> list[dict]:
    """Flatten numeric payload leaves into (cell, value) long rows."""
    rows: list[dict] = []

    def visit(path: str, node: Any) -> None:
        if len(rows) >= MAX_GENERIC_CELLS:
            return
        value = _float(node)
        if value is not None:
            row = dict(base)
            row["cell"] = path or "value"
            row["value"] = value
            rows.append(row)
            return
        if isinstance(node, dict):
            for key in node:
                visit(f"{path}.{key}" if path else str(key), node[key])
        elif isinstance(node, (list, tuple)):
            for i, item in enumerate(node):
                visit(f"{path}[{i}]", item)

    visit("", payload)
    return rows


class SweepSpill:
    """Buffered row appender for the serve plane (``sweep.append`` hook)."""

    def __init__(
        self,
        store: "SweepStore | str",
        flush_rows: int = 256,
    ) -> None:
        if flush_rows < 1:
            raise ValueError(f"flush_rows must be >= 1, got {flush_rows}")
        self.store = store if isinstance(store, SweepStore) else SweepStore(store)
        self.flush_rows = flush_rows
        self._rows: list[dict] = []
        self._lock = threading.Lock()

    def add(
        self,
        result: "ExperimentResult | dict",
        solver: "str | None" = None,
        fault_set: "str | None" = None,
    ) -> int:
        """Extract and buffer one result's rows; returns the row count."""
        rows = rows_from_result(result, solver=solver, fault_set=fault_set)
        flush: "list[dict] | None" = None
        with self._lock:
            self._rows.extend(rows)
            if len(self._rows) >= self.flush_rows:
                flush, self._rows = self._rows, []
        if flush:
            self.store.append(flush)
        return len(rows)

    def flush(self) -> int:
        """Write buffered rows out as one shard; returns rows written."""
        with self._lock:
            rows, self._rows = self._rows, []
        if rows:
            self.store.append(rows)
        return len(rows)

    @property
    def pending(self) -> int:
        with self._lock:
            return len(self._rows)
