"""The oracle backend: one network per full-Newton solve.

Each solve is a :func:`newton_block_solve` over one block, so its
result is a pure function of the network (and the caller's seed, if
any), and an unseeded solve is byte-identical to the seed
implementation, which rebuilt everything per solve.  Only what the sparsity pattern fixes is reused, from a
bounded, thread-safe
:class:`~repro.circuit.solvers.structure.StructureCache` of immutable
structures; drive values stay local to each solve.
"""

from __future__ import annotations

import numpy as np

from ... import obs
from ..network import ConvergenceError
from .base import SolverBackend
from .structure import StructureCache, newton_block_solve

__all__ = ["ReferenceBackend"]


class ReferenceBackend(SolverBackend):
    """Damped Newton, one network at a time, on cached pattern structures."""

    name = "reference"

    #: Patterns kept; a figure uses 14-29 (see ``docs/solvers.md``).
    cache_size = 16

    def __init__(self) -> None:
        super().__init__()
        self.cache = StructureCache(maxsize=self.cache_size)

    def solve(
        self,
        network,
        initial: np.ndarray | None = None,
        tol: float = 1e-10,
        max_iterations: int = 200,
        v_step_limit: float = 0.25,
    ):
        obs.count("solver.solves")
        structure = self.cache.get(network.pattern_signature(), lambda: network)
        (result,) = newton_block_solve(
            structure,
            structure.whole,
            drive=structure.drive(network),
            initials=[initial],
            tol=tol,
            max_iterations=max_iterations,
            v_step_limit=v_step_limit,
        )
        if isinstance(result, ConvergenceError):
            raise result
        return result
