"""Serve-plane sweep spill: completed results land as typed rows."""

import asyncio

import pytest

from repro.engine.registry import _REGISTRY, Experiment, register
from repro.engine.service import EngineService, ServeOptions
from repro.engine.warm import clear_warm_contexts
from repro.sweepstore import SweepStore


@pytest.fixture(autouse=True)
def _fresh_warm_contexts():
    clear_warm_contexts()
    yield
    clear_warm_contexts()


def _margins_driver(config=None, context=None):
    return {
        "margins": {
            f"{scheme} @ {rate:g}": {
                "latency_us": 1.0,
                "min_endurance": 1e6,
                "fail_fraction": 0.0,
                "stuck_fraction": rate,
            }
            for scheme in ("Base", "DRVR+PR")
            for rate in (0.0, 1e-3)
        }
    }


@pytest.fixture
def margins():
    register(Experiment(name="_svc_margins", driver=_margins_driver, title="m"))
    yield "_svc_margins"
    _REGISTRY.pop("_svc_margins", None)


def run_async(coro):
    return asyncio.run(coro)


async def _with_service(options, body):
    service = EngineService(options)
    try:
        await service.start()
        return await body(service)
    finally:
        await service.close(drain=True)


class TestServeSpill:
    def test_completed_results_spill_rows(self, margins, tmp_path):
        sweep_dir = tmp_path / "sweep"

        async def body(service):
            for seed in (0, 1):
                response = await service.submit(
                    {"op": "run", "experiment": margins, "seed": seed}
                )
                assert response["ok"]
            stats = (await service.submit({"op": "stats"}))["stats"]
            assert stats["counters"]["sweep.appended_rows"] == 8
            assert "sweep.append_errors" not in stats["counters"]

        run_async(
            _with_service(
                ServeOptions(
                    cache_dir=None,
                    compute_workers=1,
                    sweep_dir=str(sweep_dir),
                    sweep_flush_rows=4,  # each request's 4 rows flush a shard
                ),
                body,
            )
        )
        store = SweepStore(sweep_dir, grace_s=0.0)
        table = store.table()
        assert table.num_rows == 8
        assert set(table.column("seed")) == {0, 1}
        assert set(table.column("solver")) == {"batched"}
        assert set(table.column("technique")) == {"Base", "DRVR+PR"}

    def test_close_flushes_the_buffered_tail(self, margins, tmp_path):
        sweep_dir = tmp_path / "sweep"

        async def body(service):
            response = await service.submit(
                {"op": "run", "experiment": margins}
            )
            assert response["ok"]
            # Buffer bigger than one request's rows: nothing on disk yet.
            assert SweepStore(sweep_dir, grace_s=0.0).table().num_rows == 0

        run_async(
            _with_service(
                ServeOptions(
                    cache_dir=None,
                    compute_workers=1,
                    sweep_dir=str(sweep_dir),
                    sweep_flush_rows=1000,
                ),
                body,
            )
        )
        # close(drain=True) flushed the tail into one shard.
        assert SweepStore(sweep_dir, grace_s=0.0).table().num_rows == 4

    def test_no_sweep_dir_means_no_spill_hook(self, margins, tmp_path):
        async def body(service):
            response = await service.submit(
                {"op": "run", "experiment": margins}
            )
            assert response["ok"]
            stats = (await service.submit({"op": "stats"}))["stats"]
            assert "sweep.appended_rows" not in stats["counters"]

        run_async(
            _with_service(
                ServeOptions(cache_dir=None, compute_workers=1), body
            )
        )

    def test_solver_identity_from_the_plan(self, margins, tmp_path):
        sweep_dir = tmp_path / "sweep"

        async def body(service):
            response = await service.submit(
                {
                    "op": "run",
                    "experiment": margins,
                    "solver": "batched",
                    "fault_rate": 1e-3,
                }
            )
            assert response["ok"]

        run_async(
            _with_service(
                ServeOptions(
                    cache_dir=None,
                    compute_workers=1,
                    sweep_dir=str(sweep_dir),
                    sweep_flush_rows=1,
                ),
                body,
            )
        )
        table = SweepStore(sweep_dir, grace_s=0.0).table()
        assert set(table.column("solver")) == {"batched"}
        fault_sets = set(table.column("fault_set"))
        assert fault_sets != {"none"}
        assert all(len(fs) == 12 for fs in fault_sets)
