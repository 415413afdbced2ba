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
"""

from __future__ import annotations

import threading

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
    "active_coalescer",
    "available_solvers",
    "dispatch_solve",
    "dispatch_solve_ensemble",
    "dispatch_solve_many",
    "get_backend",
    "install_coalescer",
    "reset_backend_state",
    "solver_name",
    "uninstall_coalescer",
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


#: The installed cross-request solve coalescer, or ``None``.  Installed
#: by the service's thread-pool compute plane for its lifetime; batch
#: runs never install one, so their solve paths are untouched.
_COALESCER = None
_COALESCER_LOCK = threading.Lock()


def active_coalescer():
    """The installed :class:`~repro.circuit.solvers.coalesce.SolveCoalescer`."""
    return _COALESCER


def install_coalescer(coalescer) -> None:
    """Route subsequent dispatched solves through ``coalescer``.

    Installation is refcount-free and exclusive: installing over a
    *different* live coalescer raises, because two dispatchers would
    silently split the merge window.
    """
    global _COALESCER
    with _COALESCER_LOCK:
        if _COALESCER is not None and _COALESCER is not coalescer:
            raise RuntimeError("a different solve coalescer is already installed")
        _COALESCER = coalescer


def uninstall_coalescer(coalescer) -> None:
    """Remove ``coalescer`` if it is the installed one (idempotent)."""
    global _COALESCER
    with _COALESCER_LOCK:
        if _COALESCER is coalescer:
            _COALESCER = None


def discard_coalescer_after_fork() -> None:
    """Forget an inherited coalescer without closing it (workers only).

    A forked pool worker inherits the parent's ``_COALESCER`` global,
    but *not* its dispatcher thread — the copy is an inert shell whose
    lock state is whatever the parent held at fork time.  Workers call
    this before installing their own coalescer; closing the inherited
    one instead could deadlock on a lock the (nonexistent) dispatcher
    thread will never release.
    """
    global _COALESCER
    _COALESCER = None


def dispatch_solve_many(
    solver: "str | SolverBackend | None",
    networks,
    initials=None,
    tol: float = 1e-10,
    max_iterations: int = 200,
    v_step_limit: float = 0.25,
):
    """Solve a batch through the coalescer when one is installed.

    Without a coalescer this is exactly ``get_backend(...).solve_many``;
    with one, the batch is submitted to the dispatcher thread, where it
    may merge with batches from concurrent requests whose sparsity
    signatures match.  The coalescer's own dispatcher calls backends
    directly, so dispatched solves never re-enter the queue.
    """
    coalescer = _COALESCER
    # Explicit backend *instances* bypass the coalescer: its dispatcher
    # resolves names to the process singletons, which may not be the
    # instance the caller handed in (tests pass purpose-built backends).
    if coalescer is None or isinstance(solver, SolverBackend):
        return get_backend(solver).solve_many(
            networks,
            initials=initials,
            tol=tol,
            max_iterations=max_iterations,
            v_step_limit=v_step_limit,
        )
    return coalescer.solve_many(
        solver_name(solver),
        networks,
        initials=initials,
        tol=tol,
        max_iterations=max_iterations,
        v_step_limit=v_step_limit,
    )


def dispatch_solve_ensemble(
    solver: "str | SolverBackend | None",
    networks,
    initials=None,
    tol: float = 1e-10,
    max_iterations: int = 200,
    v_step_limit: float = 0.25,
    chunk: int | None = None,
):
    """Solve a Monte Carlo ensemble, coalescer-compatible.

    Without a coalescer this is ``get_backend(...).solve_ensemble``
    (the ``batched`` backend chunks the ensemble; every other backend
    falls through to its ``solve_many``).  With one installed — the
    service's thread compute plane — the ensemble is submitted as an
    ordinary batch so it can merge with concurrent requests; chunking
    then happens wherever the coalescer's dispatcher lands the work.
    """
    coalescer = _COALESCER
    if coalescer is None or isinstance(solver, SolverBackend):
        return get_backend(solver).solve_ensemble(
            networks,
            initials=initials,
            tol=tol,
            max_iterations=max_iterations,
            v_step_limit=v_step_limit,
            chunk=chunk,
        )
    return coalescer.solve_many(
        solver_name(solver),
        networks,
        initials=initials,
        tol=tol,
        max_iterations=max_iterations,
        v_step_limit=v_step_limit,
    )


def dispatch_solve(
    solver: "str | SolverBackend | None",
    network,
    initial=None,
    tol: float = 1e-10,
    max_iterations: int = 200,
    v_step_limit: float = 0.25,
):
    """Single-network :func:`dispatch_solve_many` convenience.

    Preserves the exact historical path — ``backend.solve`` — when no
    coalescer is installed, so byte-locked reference payloads cannot
    shift. With a coalescer, the solve is funnelled through the
    dispatcher thread like any batch (reference's ``solve_many`` is a
    sequential loop, so results stay byte-identical there too).
    """
    if _COALESCER is None or isinstance(solver, SolverBackend):
        return get_backend(solver).solve(
            network,
            initial=initial,
            tol=tol,
            max_iterations=max_iterations,
            v_step_limit=v_step_limit,
        )
    return dispatch_solve_many(
        solver,
        [network],
        initials=None if initial is None else [initial],
        tol=tol,
        max_iterations=max_iterations,
        v_step_limit=v_step_limit,
    )[0]


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
