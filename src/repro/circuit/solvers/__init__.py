"""Pluggable IR-drop solver backends.

Every RESET-latency figure reduces to thousands of near-identical
Newton solves of the cross-point nodal network — one per RESET vector.
The backends share one engine
(:func:`~repro.circuit.solvers.structure.newton_block_solve`) on
cached, immutable per-pattern structures, behind one interface
(:class:`~repro.circuit.solvers.base.SolverBackend`):

``batched`` (the default)
    Stacks the independent per-BL / per-section solves of a RESET
    vector into one block-diagonal system and runs their Newton
    iterations in lockstep: vectorised device evaluation across the
    batch and, on forest patterns (every reduced RESET network), one
    banded LU per iteration over all active blocks; on patterns with
    cycles, one SuperLU factorisation of each block's own sub-matrix.

``reference``
    One network per solve, exactly the seed implementation's schedule
    and bytes.  It is the oracle the test suite holds the other
    backends against, and is never seeded by the profile solver.

Numerical contract: no backend keeps state between calls, so a solve
is a pure function of its network and its caller's seed; a merged
``batched`` solve gives each network the bits of its standalone
``batched`` solve, within 1e-9 V of ``reference`` (bit-identical to it
on patterns with cycles); and every backend lands within a stated
voltage bound of a converged oracle (enforced by
``tests/circuit/test_converged_oracle.py``).  See ``docs/solvers.md``.

Each backend instance serialises its own solves with one reentrant
lock (see :class:`~repro.circuit.solvers.base.SolverBackend`), which is
what makes the process-wide singletons safe to share between request
threads.
"""

from __future__ import annotations

from .base import SolverBackend
from .batched import BatchedBackend
from .reference import ReferenceBackend

__all__ = [
    "SolverBackend",
    "ReferenceBackend",
    "BatchedBackend",
    "DEFAULT_SOLVER",
    "available_solvers",
    "get_backend",
    "reset_backend_state",
    "solver_name",
]

DEFAULT_SOLVER = "batched"

_BACKEND_TYPES: dict[str, type[SolverBackend]] = {
    ReferenceBackend.name: ReferenceBackend,
    BatchedBackend.name: BatchedBackend,
}

#: Process-wide singletons so structure caches are shared by every
#: model using the same backend (workers build their own).
_INSTANCES: dict[str, SolverBackend] = {}


def available_solvers() -> tuple[str, ...]:
    """Names accepted by :func:`get_backend` (and the CLI ``--solver``)."""
    return tuple(sorted(_BACKEND_TYPES))


def get_backend(solver: "str | SolverBackend | None") -> SolverBackend:
    """Resolve a backend name (or pass an instance through).

    ``None`` resolves to the :data:`DEFAULT_SOLVER`.  Named lookups
    return a process-wide singleton, so pattern structures are shared
    across models.
    """
    if isinstance(solver, SolverBackend):
        return solver
    name = solver_name(solver)
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = _INSTANCES[name] = _BACKEND_TYPES[name]()
    return instance


def reset_backend_state() -> None:
    """Empty the structure cache of every instantiated backend singleton.

    Drops the cached pattern structures, so subsequent solves rebuild
    them.  Benchmarks call this between entries to keep timings
    independent of run order.
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
