"""Each solver backend serialises its own solves with one reentrant lock.

The lock is what makes the process-wide backend singletons safe to
share between request threads; these tests pin that concurrent callers
get the same answers as serial ones, that a held lock really blocks a
solve, and that the lock is reentrant and owned by the type.
"""

import threading

import numpy as np
import pytest

from repro.circuit.crosspoint import BASELINE_BIAS
from repro.circuit.solvers import BatchedBackend, SolverBackend, get_backend
from repro.circuit.solvers.base import _fresh_locks_after_fork

#: The golden drives of ``test_converged_oracle.py``, 3.3 V included:
#: an unseeded solve keeps no state between calls, so it lands on the
#: serial ``reference`` bytes at every drive whatever the threading.
DRIVES = (2.8, 2.9, 3.0, 3.1, 3.2, 3.3, 3.4, 3.5, 3.6)


def _networks(model, row=40, cols=(5, 37)):
    """One RESET selection at every drive: one pattern, eight drives."""
    networks = {}
    for v in DRIVES:
        row_, cols_, drive = model._normalise(row, cols, v)
        networks[v] = model._build_reset_network(
            row_, cols_, drive, BASELINE_BIAS
        )[0]
    return networks


@pytest.mark.parametrize("backend_type", [BatchedBackend])
def test_threads_on_one_pattern_match_serial_reference(
    reduced_model_builder, backend_type
):
    """Four threads, different drives, one shared accelerated backend:
    no thread raises and every solution stays within 1e-9 V of a serial
    ``reference`` solve of the same network."""
    networks = _networks(reduced_model_builder(64))
    reference = get_backend("reference")
    expected = {v: reference.solve(net).voltages for v, net in networks.items()}

    backend = backend_type()
    barrier = threading.Barrier(4)
    results: dict[float, list[np.ndarray]] = {v: [] for v in DRIVES}
    errors: list[BaseException] = []

    def worker(offset: int) -> None:
        try:
            barrier.wait()
            for v in DRIVES[offset::4] * 3:
                results[v].append(backend.solve(networks[v]).voltages)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors
    for v in DRIVES:
        assert len(results[v]) == 3
        for voltages in results[v]:
            np.testing.assert_allclose(
                voltages, expected[v], rtol=0.0, atol=1e-9
            )


def test_held_lock_blocks_a_solve(ladder_builder):
    backend = BatchedBackend()
    net, _nodes = ladder_builder([100.0] * 6, 3.0)
    done = threading.Event()

    def solve() -> None:
        backend.solve(net)
        done.set()

    with backend._lock:
        thread = threading.Thread(target=solve)
        thread.start()
        # The solve cannot finish while this thread holds the lock.
        assert not done.wait(timeout=0.2)
    thread.join(timeout=30)
    assert done.is_set()


@pytest.mark.parametrize("name", ["reference", "factor-cache", "batched"])
def test_entry_points_reenter_under_the_lock(ladder_builder, name):
    """``solve`` / ``solve_many`` / ``solve_ensemble`` call each other;
    the lock must let the owning thread back in."""
    backend = get_backend(name)
    nets = [ladder_builder([100.0] * 6, v)[0] for v in (2.5, 3.0)]
    with backend._lock:
        single = backend.solve(nets[0])
        many = backend.solve_many(nets)
        ensemble = backend.solve_ensemble(nets, chunk=1)
    for a, b in zip([single, *many], [many[0], *ensemble]):
        np.testing.assert_allclose(a.voltages, b.voltages, rtol=0.0, atol=1e-9)


def test_subclass_entry_points_are_serialised(ladder_builder):
    """The lock is held by the type: a new backend is covered without
    opting in."""
    seen = []

    class Probe(SolverBackend):
        name = "probe"

        def solve(self, network, initial=None, tol=1e-10,
                  max_iterations=200, v_step_limit=0.25):
            seen.append(self._lock._is_owned())
            return get_backend("reference").solve(network)

    probe = Probe()
    net, _nodes = ladder_builder([100.0] * 4, 3.0)
    probe.solve(net)
    probe.solve_many([net, net])
    assert seen == [True, True, True]


def test_fork_hook_replaces_an_orphaned_lock(ladder_builder):
    """A lock held by a thread that no longer exists (the state a
    forked child inherits) is replaced by the after-fork hook."""
    backend = BatchedBackend()
    grabber = threading.Thread(target=backend._lock.acquire)
    grabber.start()
    grabber.join()
    assert not backend._lock.acquire(blocking=False)
    _fresh_locks_after_fork()
    net, _nodes = ladder_builder([100.0] * 4, 3.0)
    assert np.isfinite(backend.solve(net).voltages).all()
