#!/usr/bin/env python3
"""CI smoke test for the Monte Carlo variability engine.

Drives the ``mc-sweep`` experiment end to end on a small array —
engine params channel, ensemble solves on the ``batched`` backend,
typed percentile-band artifacts — then spills the per-instance rows
through the sweep-store ETL and re-aggregates the bands from the
store, with golden assertions at every step:

* the payload carries every declared key, one band per fault rate and
  one instance row per (rate, instance);
* bands are monotone (p1 <= p50 <= p99) and the sigma>0 rates spread;
* re-running the experiment on a cold profile registry reproduces the
  payload bit for bit (one master seed determines the ensemble);
* ``rows_from_result`` extracts exactly rates x samples typed rows
  with the ``<scheme>@<rate>#i<instance>`` cell identity;
* after ingest/combine, a per-rate store query returns the ensemble's
  instances, and percentile bands re-aggregated from the store equal
  the payload's bands exactly.

Usage::

    python scripts/mc_smoke.py
"""

from __future__ import annotations

import pathlib
import sys
import tempfile

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro import RunContext, run_experiment  # noqa: E402
from repro.circuit.solvers import reset_backend_state  # noqa: E402
from repro.config import default_config  # noqa: E402
from repro.mc import DEFAULT_MC_RATES, PercentileBand  # noqa: E402
from repro.sweepstore import SweepStore, rows_from_result  # noqa: E402
from repro.xpoint.vmap import ModelCache, profile_registry  # noqa: E402

ARRAY_SIZE = 32
SAMPLES = 6
SCHEME = "Base"


def _run() -> "tuple[dict, object]":
    # Cold start: solver warm-start vectors and the shared profile
    # registry both carry cross-run state that perturbs Newton
    # trajectories at the 1e-10 level — reproducibility is only
    # defined from identical starting conditions.
    reset_backend_state()
    profile_registry.clear()
    context = RunContext(
        config=default_config(size=ARRAY_SIZE),
        model_cache=ModelCache(),
        solver="batched",
        params={"samples": SAMPLES},
    )
    result = run_experiment("mc-sweep", context)
    assert not result.errors, result.errors
    return result.payload, result


def main() -> int:
    payload, result = _run()

    assert payload["samples"] == SAMPLES, payload["samples"]
    assert tuple(payload["rates"]) == DEFAULT_MC_RATES, payload["rates"]
    bands = payload["bands"]
    assert set(bands) == {f"{rate:g}" for rate in DEFAULT_MC_RATES}, bands
    instances = payload["mc_instances"]
    assert len(instances) == len(DEFAULT_MC_RATES) * SAMPLES, len(instances)

    for rate_text, rate_bands in bands.items():
        for metric in ("latency_us", "lifetime_at_risk", "fail_fraction"):
            band = rate_bands[metric]
            assert band["p1"] <= band["p50"] <= band["p99"], (rate_text, metric)
    # Nonzero fault rates carry spread, so the latency band must open.
    wide = bands[f"{DEFAULT_MC_RATES[-1]:g}"]["latency_us"]
    assert wide["p99"] > wide["p1"], wide

    # One master seed determines the ensemble bit for bit.
    again, _ = _run()
    assert again == payload, "mc-sweep payload is not reproducible"

    rows = rows_from_result(result)
    assert len(rows) == len(DEFAULT_MC_RATES) * SAMPLES, len(rows)
    cells = {row["cell"] for row in rows}
    assert f"{SCHEME}@{DEFAULT_MC_RATES[-1]:g}#i0" in cells, sorted(cells)[:4]

    with tempfile.TemporaryDirectory(prefix="mc-smoke-") as root:
        store = SweepStore(root, grace_s=0.0)
        store.append(rows)
        report = store.combine()
        assert report.rows == len(rows), report

        for rate in DEFAULT_MC_RATES:
            cut = store.query(
                where=[
                    ("technique", "==", SCHEME),
                    ("fault_rate", "==", float(rate)),
                ],
                columns=["cell", "latency_us", "fail_fraction"],
            )
            assert len(cut["latency_us"]) == SAMPLES, (rate, cut)
            # Bands re-aggregated from store rows equal the payload's.
            band = PercentileBand.from_samples(cut["latency_us"]).as_dict()
            assert band == bands[f"{rate:g}"]["latency_us"], (rate, band)

    print(
        f"mc-smoke: {len(rows)} instance rows across "
        f"{len(DEFAULT_MC_RATES)} rates, bands reproducible and "
        "store-aggregable"
    )
    print("mc smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
