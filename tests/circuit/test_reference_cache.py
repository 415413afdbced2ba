"""The ``reference`` backend's structure cache: safe, bounded, forgetful.

Reference solves share cached, immutable pattern structures; these
tests pin what that sharing must not change — results under concurrent
callers, the cache's memory bound, and the lifetime of solved networks.
"""

import gc
import threading
import weakref

import numpy as np

from repro.circuit.crosspoint import BASELINE_BIAS
from repro.circuit.solvers import ReferenceBackend, get_backend, reset_backend_state

from .test_solver_parity import fingerprint

DRIVES = (2.9, 3.0, 3.1, 3.2, 3.3, 3.4, 3.5, 3.6)


def test_concurrent_solves_match_serial(reduced_model_builder):
    """Four threads on one pattern at different drives, one shared
    backend: every result is byte-identical to a serial solve (the
    ``ThreadPoolBackend`` path, where request threads meet at the
    backend's lock)."""
    model = reduced_model_builder(64, "reference")
    row, cols = 40, (5, 37)
    serial = {v: fingerprint(model.solve_reset(row, cols, v)) for v in DRIVES}

    reset_backend_state()
    barrier = threading.Barrier(4)
    results: dict[float, str] = {}
    errors: list[BaseException] = []

    def worker(offset: int) -> None:
        try:
            barrier.wait()
            for v in DRIVES[offset::4] * 3:
                got = fingerprint(model.solve_reset(row, cols, v))
                assert results.setdefault(v, got) == got
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors
    assert results == serial


def _network(model, row, col):
    row, cols, drive = model._normalise(row, (col,), None)
    return model._build_reset_network(row, cols, drive, BASELINE_BIAS).network


def test_cache_stays_within_bound(reduced_model_builder):
    model = reduced_model_builder(32)
    backend = ReferenceBackend()
    bound = backend.cache_size
    for col in range(bound + 4):  # more distinct selection patterns than slots
        backend.solve(_network(model, 10, col))
        assert len(backend.cache) <= bound
    assert len(backend.cache) == bound


def test_solved_network_is_not_retained(reduced_model_builder):
    net = _network(reduced_model_builder(32), 10, 20)
    backend = ReferenceBackend()
    solution = backend.solve(net)
    assert len(backend.cache) == 1
    ref = weakref.ref(net)
    del net
    gc.collect()
    assert ref() is None
    assert np.isfinite(solution.voltages).all()


def test_reset_backend_state_empties_cache(reduced_model_builder):
    reduced_model_builder(32, "reference").solve_reset(5, (7,))
    assert len(get_backend("reference").cache) >= 1
    reset_backend_state()
    assert len(get_backend("reference").cache) == 0
