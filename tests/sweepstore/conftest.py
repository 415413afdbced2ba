"""Shared fixtures for the sweep-store suites."""

import pytest

from repro.sweepstore import SweepStore


def make_rows(
    solver="reference",
    seed=0,
    schemes=("Base", "DRVR+PR"),
    rates=(0.0, 1e-4, 1e-3),
    config_hash="cfg0",
    latency_base=1.0,
):
    """A deterministic fault-sweep-shaped row grid."""
    rows = []
    for scheme in schemes:
        for i, rate in enumerate(rates):
            rows.append(
                {
                    "config_hash": config_hash,
                    "experiment": "fault_sweep",
                    "technique": scheme,
                    "solver": solver,
                    "fault_set": "none",
                    "seed": seed,
                    "cell": f"{scheme}@{rate:g}",
                    "fault_rate": rate,
                    "array_size": 512,
                    "latency_us": latency_base + i,
                    "min_endurance": 1e6 / (1 + i),
                    "fail_fraction": 0.0,
                    "stuck_fraction": rate,
                    "wall_s": 0.01,
                }
            )
    return rows


@pytest.fixture
def rows():
    return make_rows()


@pytest.fixture
def store(tmp_path):
    """An npz-backed store with crash-debris grace disabled (tests are
    the crashed writer, and they are done crashing by assert time)."""
    return SweepStore(tmp_path / "store", grace_s=0.0)
