"""Service request plane: lifecycle, deadlines, admission, parity."""

import asyncio
import json
import threading

import numpy as np
import pytest

from repro.engine import run_experiment
from repro.engine.registry import _REGISTRY, Experiment, register
from repro.engine.service import EngineService, ServeOptions
from repro.engine.warm import clear_warm_contexts, warm_context


@pytest.fixture(autouse=True)
def _fresh_warm_contexts():
    clear_warm_contexts()
    yield
    clear_warm_contexts()


# -- probe experiments ------------------------------------------------------------

_GATE = threading.Event()


def _gated_driver(config=None, context=None):
    """Blocks until the test releases the gate (deterministic slowness)."""
    if not _GATE.wait(timeout=30):
        raise RuntimeError("gate never released")
    return {"seed": context.seed}


def _solve_driver(config=None, context=None):
    """A real (small) solve workload so parity is numerically meaningful."""
    from repro.circuit.line_model import ReducedArrayModel
    from repro.config import default_config

    model = ReducedArrayModel(default_config(size=16), solver=context.solver)
    rng = np.random.default_rng(context.seed)
    selections = [
        (int(rng.integers(16)), (int(rng.integers(16)),)) for _ in range(4)
    ]
    solutions = model.solve_reset_many(selections)
    return {
        "v_eff": {
            f"{row}-{cols[0]}": solution.v_eff[(row, cols[0])]
            for (row, cols), solution in zip(selections, solutions)
        },
        "sneak": [solution.sneak_current for solution in solutions],
    }


@pytest.fixture
def gated():
    _GATE.clear()
    register(Experiment(name="_svc_gated", driver=_gated_driver, title="g"))
    yield "_svc_gated"
    _GATE.set()  # never leave a worker thread blocked
    _REGISTRY.pop("_svc_gated", None)


@pytest.fixture
def solved():
    register(Experiment(name="_svc_solve", driver=_solve_driver, title="s"))
    yield "_svc_solve"
    _REGISTRY.pop("_svc_solve", None)


def run_async(coro):
    return asyncio.run(coro)


async def _with_service(options, body):
    """Run ``body(service)`` against a started service, always closing."""
    service = EngineService(options)
    try:
        await service.start()
        return await body(service)
    finally:
        _GATE.set()
        await service.close(drain=True)


# -- in-process request lifecycle --------------------------------------------------


class TestLifecycle:
    def test_run_request_roundtrip(self, solved):
        async def body(service):
            response = await service.submit(
                {"op": "run", "id": 7, "experiment": solved, "seed": 3}
            )
            assert response["ok"] and response["id"] == 7
            result = response["result"]
            assert result["experiment"] == solved
            assert result["meta"]["seed"] == 3
            assert result["payload"]["v_eff"]
            return response

        run_async(
            _with_service(ServeOptions(cache_dir=None, compute_workers=1), body)
        )

    def test_ping_stats_and_bad_ops(self, solved):
        async def body(service):
            assert (await service.submit({"op": "ping"}))["ok"]
            await service.submit({"op": "run", "experiment": solved})
            stats = (await service.submit({"op": "stats"}))["stats"]
            assert stats["counters"]["service.admitted"] == 1
            assert stats["counters"]["service.completed"] == 1
            bad = await service.submit({"op": "frobnicate"})
            assert not bad["ok"] and bad["error"]["code"] == "bad-request"
            not_dict = await service.submit("run please")
            assert not not_dict["ok"]

        run_async(
            _with_service(ServeOptions(cache_dir=None, compute_workers=1), body)
        )

    def test_unknown_experiment_is_a_client_error(self):
        async def body(service):
            response = await service.submit(
                {"op": "run", "experiment": "_definitely_missing"}
            )
            assert not response["ok"]
            assert response["error"]["code"] == "unknown-experiment"

        run_async(
            _with_service(ServeOptions(cache_dir=None, compute_workers=1), body)
        )

    def test_malformed_run_fields_rejected(self, solved):
        async def body(service):
            for doc in (
                {"op": "run"},
                {"op": "run", "experiment": solved, "seed": "zero"},
                {"op": "run", "experiment": solved, "deadline_s": -1},
                {"op": "run", "experiment": solved, "fault_rate": "lots"},
            ):
                response = await service.submit(doc)
                assert not response["ok"]
                assert response["error"]["code"] == "bad-request"

        run_async(
            _with_service(ServeOptions(cache_dir=None, compute_workers=1), body)
        )


class TestDeadlinesAndAdmission:
    def test_deadline_expired(self, gated):
        async def body(service):
            response = await service.submit(
                {"op": "run", "experiment": gated, "deadline_s": 0.05}
            )
            assert not response["ok"]
            assert response["error"]["code"] == "deadline"
            stats = service.stats()
            assert stats["counters"]["service.deadline_expired"] == 1
            _GATE.set()  # unblock the abandoned worker before close()

        run_async(
            _with_service(ServeOptions(cache_dir=None, compute_workers=1), body)
        )

    def test_admission_rejection_when_full(self, gated):
        async def body(service):
            first = asyncio.ensure_future(
                service.submit({"op": "run", "experiment": gated})
            )
            while service.pending < 1:
                await asyncio.sleep(0.005)
            second = await service.submit({"op": "run", "experiment": gated})
            assert not second["ok"]
            assert second["error"]["code"] == "rejected"
            _GATE.set()
            assert (await first)["ok"]
            counters = service.stats()["counters"]
            assert counters["service.rejected"] == 1
            assert counters["service.admitted"] == 1

        run_async(
            _with_service(
                ServeOptions(cache_dir=None, compute_workers=1, max_pending=1),
                body,
            )
        )


# -- socket protocol ---------------------------------------------------------------


async def _request_line(host, port, doc):
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(json.dumps(doc).encode() + b"\n")
    await writer.drain()
    line = await reader.readline()
    writer.close()
    await writer.wait_closed()
    return json.loads(line)


class TestSocket:
    def test_roundtrip_and_invalid_json(self, solved):
        async def body(service):
            doc = await _request_line(
                service.host,
                service.port,
                {"op": "run", "id": 1, "experiment": solved},
            )
            assert doc["ok"] and doc["result"]["payload"]["v_eff"]
            reader, writer = await asyncio.open_connection(
                service.host, service.port
            )
            writer.write(b"{not json\n")
            await writer.drain()
            error = json.loads(await reader.readline())
            assert not error["ok"] and error["error"]["code"] == "bad-request"
            writer.close()
            await writer.wait_closed()

        run_async(
            _with_service(ServeOptions(cache_dir=None, compute_workers=1), body)
        )

    def test_graceful_shutdown_drains_inflight_requests(self, gated):
        async def body(service):
            reader, writer = await asyncio.open_connection(
                service.host, service.port
            )
            writer.write(
                json.dumps({"op": "run", "id": 9, "experiment": gated}).encode()
                + b"\n"
            )
            await writer.drain()
            while service.pending < 1:
                await asyncio.sleep(0.005)
            closer = asyncio.ensure_future(service.close(drain=True))
            await asyncio.sleep(0.05)
            assert not closer.done()  # close waits for the in-flight run
            _GATE.set()
            await closer
            response = json.loads(await reader.readline())
            assert response["ok"] and response["id"] == 9
            writer.close()
            await writer.wait_closed()

        async def run(service):
            try:
                await service.start()
                await body(service)
            finally:
                _GATE.set()
                await service.close(drain=False)

        run_async(run(EngineService(ServeOptions(cache_dir=None, compute_workers=1))))

    def test_concurrent_requests_match_batch_payloads(self, solved):
        """Acceptance: >=8 concurrent requests, payloads identical to batch.

        Baselines are computed *before* the service exists, so this
        compares the concurrent service path against the plain batch
        path; under the default ``reference`` solver the payloads must
        be bit-identical.
        """
        seeds = list(range(8))
        baselines = {
            seed: run_experiment(
                solved, warm_context(seed=seed)
            ).to_plain()["payload"]
            for seed in seeds
        }
        clear_warm_contexts()

        async def body(service):
            docs = await asyncio.gather(
                *(
                    _request_line(
                        service.host,
                        service.port,
                        {
                            "op": "run",
                            "id": seed,
                            "experiment": solved,
                            "seed": seed,
                        },
                    )
                    for seed in seeds
                )
            )
            for doc in docs:
                assert doc["ok"], doc
                assert doc["result"]["payload"] == baselines[doc["id"]]
            stats = service.stats()
            assert stats["counters"]["service.completed"] == len(seeds)

        run_async(
            _with_service(
                ServeOptions(cache_dir=None, compute_workers=4), body
            )
        )

    def test_service_client_library(self, solved):
        """repro.client speaks the protocol end to end (worker thread)."""
        from repro.client import ServiceClient, ServiceError, submit_many

        async def body(service):
            loop = asyncio.get_running_loop()

            def drive():
                with ServiceClient(service.host, service.port) as client:
                    assert client.ping()
                    doc = client.run(solved, seed=2)
                    stats = client.stats()
                    try:
                        client.run("_definitely_missing")
                    except ServiceError as exc:
                        code = exc.code
                    else:
                        code = None
                    return doc, stats, code

            doc, stats, code = await loop.run_in_executor(None, drive)
            assert doc["result"]["meta"]["seed"] == 2
            assert stats["counters"]["service.completed"] >= 1
            assert code == "unknown-experiment"

            fan = await loop.run_in_executor(
                None,
                lambda: submit_many(
                    [
                        {"op": "run", "experiment": solved, "seed": s}
                        for s in range(3)
                    ],
                    host=service.host,
                    port=service.port,
                    concurrency=3,
                ),
            )
            assert all(
                isinstance(doc, dict) and doc["ok"] for doc in fan
            )

        run_async(
            _with_service(ServeOptions(cache_dir=None, compute_workers=2), body)
        )
