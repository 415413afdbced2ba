"""Backend interface shared by every IR-drop solver implementation."""

from __future__ import annotations

import functools
import os
import threading
import weakref
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..network import Network, Solution

__all__ = ["SolverBackend"]

#: Every live backend, so a forked child can replace locks that a
#: parent thread held at fork time (that thread does not exist there).
_LIVE: "weakref.WeakSet[SolverBackend]" = weakref.WeakSet()


def _serialised(method):
    """Run ``method`` under its backend's reentrant lock."""

    @functools.wraps(method)
    def locked(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)

    return locked


def _fresh_locks_after_fork() -> None:
    for backend in _LIVE:
        backend._lock = threading.RLock()


if hasattr(os, "register_at_fork"):  # POSIX only; no fork elsewhere
    os.register_at_fork(after_in_child=_fresh_locks_after_fork)


class SolverBackend(ABC):
    """One strategy for solving resistive-network Newton systems.

    A backend owns its cache of immutable per-pattern factorisation
    structures, and nothing a solve computes outlives the call;
    :class:`~repro.circuit.network.Network` stays a plain netlist.  Backends must all satisfy the same contract:
    damped Newton on the nodal KCL system, converged to ``tol`` on the
    residual norm, raising
    :class:`~repro.circuit.network.ConvergenceError` when the iteration
    budget or line search is exhausted.

    Concurrency: each instance serialises its public entry points
    (:meth:`solve`, :meth:`solve_many`, :meth:`solve_ensemble`, in this
    class and every subclass) with one reentrant lock, so the
    structure cache is never written by two request threads at once.  The lock is reentrant because the entry points
    call each other (``BatchedBackend.solve`` calls ``solve_many``, the
    default ``solve_many`` calls ``solve``).
    """

    #: Registry name; also used in cache keys and obs counters.
    name: str = "abstract"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        for method in ("solve", "solve_many", "solve_ensemble"):
            if method in cls.__dict__:
                setattr(cls, method, _serialised(cls.__dict__[method]))

    def __init__(self) -> None:
        self._lock = threading.RLock()
        _LIVE.add(self)

    @abstractmethod
    def solve(
        self,
        network: "Network",
        initial: np.ndarray | None = None,
        tol: float = 1e-10,
        max_iterations: int = 200,
        v_step_limit: float = 0.25,
    ) -> "Solution":
        """Solve one network (parameters mirror ``Network.solve``)."""

    @_serialised
    def solve_many(
        self,
        networks: Sequence["Network"],
        initials: Sequence[np.ndarray | None] | None = None,
        tol: float = 1e-10,
        max_iterations: int = 200,
        v_step_limit: float = 0.25,
    ) -> "list[Solution]":
        """Solve independent networks; backends may stack them.

        The default implementation solves them one at a time in order,
        which keeps the ``reference`` backend's many-solve results
        byte-identical to a caller-side loop.
        """
        if initials is None:
            initials = [None] * len(networks)
        if len(initials) != len(networks):
            raise ValueError(
                f"got {len(initials)} initial guesses for {len(networks)} networks"
            )
        return [
            self.solve(
                network,
                initial=initial,
                tol=tol,
                max_iterations=max_iterations,
                v_step_limit=v_step_limit,
            )
            for network, initial in zip(networks, initials)
        ]

    @_serialised
    def solve_ensemble(
        self,
        networks: Sequence["Network"],
        initials: Sequence[np.ndarray | None] | None = None,
        tol: float = 1e-10,
        max_iterations: int = 200,
        v_step_limit: float = 0.25,
        chunk: int | None = None,
    ) -> "list[Solution]":
        """Solve a Monte Carlo ensemble of structurally-alike networks.

        An ensemble is a flat batch of independent networks that share
        one sparsity pattern (K array instances of the same geometry at
        instance-specific drive voltages).  The default implementation
        is plain :meth:`solve_many` — ``chunk`` is advisory and ignored
        — which keeps a K=1 ensemble byte-identical to the
        single-instance path on every backend.  Backends that merge
        blocks may override to bound the merged system size.
        """
        del chunk
        return self.solve_many(
            networks,
            initials=initials,
            tol=tol,
            max_iterations=max_iterations,
            v_step_limit=v_step_limit,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
