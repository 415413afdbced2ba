"""Pluggable IR-drop solver backends.

Every RESET-latency figure reduces to thousands of near-identical
Newton solves of the cross-point nodal network — one per RESET vector.
The backends here trade generality for reuse on that workload, behind
one interface (:class:`~repro.circuit.solvers.base.SolverBackend`):

``reference``
    Cold flat-start full Newton over one block of a cached, immutable
    per-pattern structure — free-node maps, the reduced linear
    conductance matrix, and the Jacobian's scatter template — keyed on
    the (array geometry, selection topology) sparsity pattern.  Every
    Newton iteration factorises, as the seed implementation did, and
    payloads are byte-identical to it; it is the parity anchor the
    other backends are tested against.

``factor-cache``
    The same engine and structure cache, plus a warm start from the
    pattern's previous converged solution and chord Newton, which
    reuses factorisations across iterations and solves.

``batched``
    Stacks the independent per-BL / per-section solves of a RESET
    vector into one block-diagonal system, runs the per-network Newton
    iterations in lockstep (vectorised device evaluation, one sparse
    factorisation per iteration) and shares the factor-cache machinery
    for cross-vector reuse.

Numerical contract: ``reference`` is exact legacy behaviour;
``factor-cache`` and ``batched`` agree with it on node voltages within
1e-9 V (enforced by ``tests/circuit/test_solver_parity.py``).  See
``docs/solvers.md``.

Each backend instance serialises its own solves with one reentrant
lock (see :class:`~repro.circuit.solvers.base.SolverBackend`), which is
what makes the process-wide singletons safe to share between request
threads.
"""

from __future__ import annotations

from .base import SolverBackend
from .batched import BatchedBackend
from .factor_cache import FactorCacheBackend
from .reference import ReferenceBackend

__all__ = [
    "SolverBackend",
    "ReferenceBackend",
    "FactorCacheBackend",
    "BatchedBackend",
    "DEFAULT_SOLVER",
    "available_solvers",
    "get_backend",
    "reset_backend_state",
    "solver_name",
]

DEFAULT_SOLVER = "reference"

_BACKEND_TYPES: dict[str, type[SolverBackend]] = {
    ReferenceBackend.name: ReferenceBackend,
    FactorCacheBackend.name: FactorCacheBackend,
    BatchedBackend.name: BatchedBackend,
}

#: Process-wide singletons so structure/warm-start caches are shared by
#: every model using the same backend name (workers build their own).
_INSTANCES: dict[str, SolverBackend] = {}


def available_solvers() -> tuple[str, ...]:
    """Names accepted by :func:`get_backend` (and the CLI ``--solver``)."""
    return tuple(sorted(_BACKEND_TYPES))


def get_backend(solver: "str | SolverBackend | None") -> SolverBackend:
    """Resolve a backend name (or pass an instance through).

    ``None`` resolves to the :data:`DEFAULT_SOLVER`.  Named lookups
    return a process-wide singleton, so pattern/warm-start caches are
    shared across models.
    """
    if isinstance(solver, SolverBackend):
        return solver
    name = solver or DEFAULT_SOLVER
    instance = _INSTANCES.get(name)
    if instance is None:
        backend_type = _BACKEND_TYPES.get(name)
        if backend_type is None:
            raise ValueError(
                f"unknown solver backend {name!r} "
                f"(choose from {', '.join(available_solvers())})"
            )
        instance = _INSTANCES[name] = backend_type()
    return instance


def reset_backend_state() -> None:
    """Empty the structure cache of every instantiated backend singleton.

    Drops the cached pattern structures (and with them the accelerated
    backends' warm-start slots) so subsequent solves start cold.
    Benchmarks call this between entries to keep timings independent of
    run order.
    """
    for instance in _INSTANCES.values():
        instance.cache.clear()


def solver_name(solver: "str | SolverBackend | None") -> str:
    """Canonical name of a backend spec (for cache keys / artifacts)."""
    if isinstance(solver, SolverBackend):
        return solver.name
    name = solver or DEFAULT_SOLVER
    if name not in _BACKEND_TYPES:
        raise ValueError(
            f"unknown solver backend {name!r} "
            f"(choose from {', '.join(available_solvers())})"
        )
    return name
