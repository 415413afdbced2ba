"""Backend that stacks independent solves into one block-diagonal system.

The per-BL and per-section solves of :mod:`repro.xpoint.vmap` are
electrically independent but structurally identical.  This backend
merges a batch of networks into one block-diagonal Newton system —
node indices offset per block, device groups re-merged by model so the
selector evaluations vectorise across the whole batch — and runs the
lockstep block engine of :mod:`repro.circuit.solvers.structure`.  One
structure build and one Python-level Newton loop then cover the entire
batch instead of ``len(batch)`` separate loops.

The structures are built with a band plan: on forest patterns (every
reduced RESET network) each Newton iteration solves all active blocks
with one banded LU, otherwise each block is factorised on its own by
SuperLU.  Either way a block follows the trajectory its standalone
solve would, so its result depends only on its network and its seed,
not on what was solved before it or beside it.  An unseeded solve lies
within 1e-9 V of ``reference``, and is bit-identical to it on patterns
with cycles.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ... import obs
from ..network import GROUND, ConvergenceError, Network, Solution, _DeviceGroup
from .base import SolverBackend
from .structure import StructureCache, newton_block_solve

__all__ = ["BatchedBackend"]


def _shifted(nodes: np.ndarray, off: int) -> np.ndarray:
    """Node handles moved up by ``off``; GROUND stays put."""
    return np.where(nodes == GROUND, nodes, nodes + off)


def _merge_networks(networks: Sequence) -> tuple[Network, list[int]]:
    """Block-diagonal union of ``networks`` (GROUND stays shared)."""
    merged = Network()
    offsets: list[int] = []
    total = 0
    for net in networks:
        offsets.append(total)
        total += net.node_count
    merged._node_count = total
    for net, off in zip(networks, offsets):
        merged._res_n1.extend(_shifted(net._res_n1.array(), off))
        merged._res_n2.extend(_shifted(net._res_n2.array(), off))
        merged._res_g.extend(net._res_g.array())
        for group in net._groups.values():
            target = merged._groups.setdefault(
                id(group.model), _DeviceGroup(group.model)
            )
            target.n1.extend(_shifted(group.n1.array(), off))
            target.n2.extend(_shifted(group.n2.array(), off))
        for node, value in net._fixed.items():
            merged._fixed[node + off] = value
    merged._revision += 1
    return merged, offsets


class BatchedBackend(SolverBackend):
    """Multi-network lockstep Newton over a merged block-diagonal system."""

    name = "batched"

    #: Upper bound on blocks merged per ensemble sub-batch.  Large
    #: enough to amortise the Python-level Newton loop across many
    #: instances, small enough that the merged structure and its
    #: per-iteration Jacobian stay bounded.
    ensemble_chunk = 128

    def __init__(self, cache_size: int = 64) -> None:
        super().__init__()
        self.cache = StructureCache(maxsize=cache_size, banded=True)

    def solve_ensemble(
        self,
        networks,
        initials=None,
        tol: float = 1e-10,
        max_iterations: int = 200,
        v_step_limit: float = 0.25,
        chunk: int | None = None,
    ):
        """Chunked :meth:`solve_many` over one Monte Carlo ensemble.

        Every full sub-batch reuses the same cached structure (the
        ensemble shares one sparsity pattern), so one Newton loop covers
        up to ``chunk`` instances at a time while the merged system size
        stays bounded.
        """
        if not networks:
            return []
        chunk = self.ensemble_chunk if chunk is None or chunk <= 0 else chunk
        obs.count("solver.ensemble_solves")
        obs.count("solver.ensemble_networks", len(networks))
        solutions = []
        for start in range(0, len(networks), chunk):
            stop = start + chunk
            solutions.extend(
                self.solve_many(
                    networks[start:stop],
                    initials=None if initials is None else initials[start:stop],
                    tol=tol,
                    max_iterations=max_iterations,
                    v_step_limit=v_step_limit,
                )
            )
        return solutions

    def solve(
        self,
        network,
        initial: np.ndarray | None = None,
        tol: float = 1e-10,
        max_iterations: int = 200,
        v_step_limit: float = 0.25,
    ):
        initials = None if initial is None else [initial]
        return self.solve_many(
            [network],
            initials=initials,
            tol=tol,
            max_iterations=max_iterations,
            v_step_limit=v_step_limit,
        )[0]

    def solve_many(
        self,
        networks,
        initials=None,
        tol: float = 1e-10,
        max_iterations: int = 200,
        v_step_limit: float = 0.25,
    ):
        if initials is not None and len(initials) != len(networks):
            raise ValueError(
                f"got {len(initials)} initial guesses for {len(networks)} networks"
            )
        if not networks:
            return []
        obs.count("solver.solves", len(networks))
        obs.gauge("solver.batch_size", len(networks))

        merged, offsets = _merge_networks(networks)
        structure = self.cache.get(merged)
        state = structure.state
        bounds = offsets + [merged.node_count]
        free_bounds = np.searchsorted(state.free, bounds)
        blocks = [
            (int(free_bounds[i]), int(free_bounds[i + 1]), bounds[i], bounds[i + 1])
            for i in range(len(networks))
        ]

        drive = structure.drive(merged)
        solve = dict(
            tol=tol, max_iterations=max_iterations, v_step_limit=v_step_limit
        )
        results = newton_block_solve(structure, blocks, drive, initials, **solve)
        # A seed from an incompatible drive point can fail where a flat
        # start would not: those blocks retry from a flat start, and
        # only a failure from a flat start is final.
        retry = [
            b
            for b, result in enumerate(results)
            if isinstance(result, ConvergenceError)
            and initials is not None
            and initials[b] is not None
        ]
        if retry:
            obs.count("solver.cold_fallbacks", len(retry))
            cold = newton_block_solve(
                structure, [blocks[b] for b in retry], drive, **solve
            )
            for b, result in zip(retry, cold):
                results[b] = result
        for result in results:
            if isinstance(result, ConvergenceError):
                raise result
        return [
            Solution(
                sol.voltages[off : off + net.node_count].copy(),
                sol.iterations,
                sol.residual_norm,
            )
            for sol, net, off in zip(results, networks, offsets)
        ]
