"""Backend that also reuses solutions and factorisations across solves.

It runs the ``reference`` backend's engine on the same kind of
pattern-keyed :class:`~repro.circuit.solvers.structure.StructureCache`,
and adds what a RESET sweep's hundreds of near-identical solves allow:
repeat solves of a pattern warm-start from its previous converged
voltages (typically 8 Newton iterations down to 2), and chord Newton
reuses LU factorisations across iterations and solves.
"""

from __future__ import annotations

import numpy as np

from ... import obs
from .base import SolverBackend
from .structure import StructureCache, newton_block_solve

__all__ = ["FactorCacheBackend"]


class FactorCacheBackend(SolverBackend):
    """Pattern-keyed structure reuse with warm-started chord Newton.

    ``chord=False`` disables factorisation reuse across iterations while
    keeping structure/warm-start reuse across solves — the knob the
    parity and property suites use to compare the two convergence
    strategies on identical machinery.
    """

    name = "factor-cache"

    def __init__(self, cache_size: int = 64, chord: bool = True) -> None:
        super().__init__()
        self.cache = StructureCache(maxsize=cache_size)
        self.chord = chord

    def solve(
        self,
        network,
        initial: np.ndarray | None = None,
        tol: float = 1e-10,
        max_iterations: int = 200,
        v_step_limit: float = 0.25,
    ):
        from ..network import ConvergenceError

        obs.count("solver.solves")
        structure = self.cache.get(network)
        drive = structure.drive(network)
        warm = self.cache.warm_start(structure)
        seeded = initial is not None or warm.free is not None
        try:
            return newton_block_solve(
                structure,
                structure.whole,
                drive=drive,
                initial=initial,
                warm=warm,
                tol=tol,
                max_iterations=max_iterations,
                v_step_limit=v_step_limit,
                chord=self.chord,
            )[0]
        except ConvergenceError:
            if not seeded:
                raise  # a genuinely cold full-Newton failure is final
            # A warm start or caller seed from a very different drive
            # point (or, in pathological cases, the chord iteration's
            # stale directions) can exhaust the iteration budget; the
            # guaranteed fallback is a cold flat-start full Newton —
            # the reference backend's exact schedule.
            obs.count("solver.full_newton_fallbacks")
            warm.free = warm.lu = None
            return newton_block_solve(
                structure,
                structure.whole,
                drive=drive,
                initial=None,
                warm=warm,
                tol=tol,
                max_iterations=max_iterations,
                v_step_limit=v_step_limit,
                chord=False,
            )[0]
