"""Cached pattern structures and the lockstep Newton engine.

The cross-point RESET workload solves thousands of networks that share
one sparsity pattern: the array geometry and selection topology fix the
Jacobian's structure, and only the drive voltages (and the Newton
iterates) change the numeric values.  A :class:`SolverStructure`
captures everything that is a function of the pattern alone, and is
immutable once built:

* the reduced free-node maps and linear conductance matrix of
  :class:`~repro.circuit.network._SolverState`,
* the union CSC sparsity pattern of ``linear + device stamps``, with a
  precomputed scatter template that turns device conductances into the
  Jacobian's data array in O(nnz) — no per-iteration COO assembly,
  conversion, or sparse addition — bit-identical to scipy's
  ``linear + coo(stamps).tocsc()``,
* on request, and only when the free-node graph is a forest, a
  :class:`BandPlan`: a per-component ordering, its bandwidth and the
  scatter of Jacobian entries into LAPACK band storage.

A solve's pinned voltage values stay local to it, and no solve leaves
anything behind for the next one: a solution is a pure function of its
network and its caller's seed.

:func:`newton_block_solve` runs the damped Newton iteration over one or
more independent *blocks* (sub-networks merged block-diagonally by the
batched backend).  Each block follows the schedule of a standalone
solve of its network — same initial guess, per-block step clamp,
per-block line search, per-block stopping.  A structure without a band
plan factorises each active block's diagonal sub-matrix with SuperLU,
so a block's result is bit-identical to the ``reference`` backend's
solve of the same network from the same start.  A structure with one
takes each iteration's steps of all active blocks from one banded LU
(LAPACK ``gbsv``); a block's bits then do not depend on what else is
in the band, so a merged solve equals the standalone banded solve.
"""

from __future__ import annotations

import copy
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Hashable, NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from ... import obs
from ..network import ConvergenceError, Solution, _Drive, _SolverState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..network import Network

__all__ = ["BandPlan", "SolverStructure", "StructureCache", "newton_block_solve"]


class BandPlan(NamedTuple):
    """Where a forest pattern's Jacobian lands in LAPACK band storage.

    ``order[p]`` is the free index at band position ``p``.  It runs
    component by component, components by their lowest free index, so
    it maps the free range of every network merged into the pattern
    onto itself.  ``index`` sends each Jacobian entry (in the union
    pattern's order) to its slot in a C-ordered ``(n, 3 * kd + 1)``
    array whose row ``p`` is band column ``p``: the transpose of
    ``gbsv``'s ``ab`` with ``kl = ku = kd``.
    """

    order: np.ndarray
    kd: int
    index: np.ndarray


def _breadth_first(pattern: sp.csc_matrix, seeds: np.ndarray) -> np.ndarray:
    """Free nodes in breadth-first order from a virtual root joined to ``seeds``.

    One call searches every component: the searches interleave, but a
    component's nodes are reached in the order of its own search from
    its seed (neighbours in index order), whatever else is in the graph.
    """
    from scipy.sparse import csgraph  # only banded structures need it

    n = pattern.shape[0]
    # A symmetric pattern's CSC arrays read as CSR adjacency lists.
    indptr = np.append(pattern.indptr, pattern.indptr[-1] + seeds.size)
    indices = np.append(pattern.indices, seeds)
    graph = sp.csr_matrix(
        (np.ones(indices.size), indices, indptr), shape=(n + 1, n + 1)
    )
    return csgraph.breadth_first_order(
        graph, n, directed=True, return_predecessors=False
    )[1:]


def _band_plan(pattern: sp.csc_matrix) -> "BandPlan | None":
    """The band plan of a symmetric ``pattern``; ``None`` unless it is a forest.

    Each component is ordered by a breadth-first search from a
    pseudo-peripheral node: search from its lowest node, then again from
    the last node reached, which in a tree ends a longest path.  A
    ladder then keeps one node per level and every branch of a tree
    adds one, so a reduced RESET network's bandwidth stays small.  Each
    component's order depends on that component alone.
    """
    from scipy.sparse import csgraph

    n = pattern.shape[0]
    count, labels = csgraph.connected_components(pattern, directed=False)
    rows = pattern.indices
    cols = np.repeat(np.arange(n), np.diff(pattern.indptr))
    if np.count_nonzero(rows != cols) != 2 * (n - count):
        return None  # a cycle: keep the per-block SuperLU step
    lowest = np.unique(labels, return_index=True)[1]
    key = lowest[labels]  # groups components by their lowest node
    ends = np.cumsum(np.bincount(labels)[np.argsort(lowest)]) - 1
    seeds = lowest
    for _sweep in range(2):
        reached = _breadth_first(pattern, seeds)
        order = reached[np.argsort(key[reached], kind="stable")]
        seeds = order[ends]
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(n)
    offset = position[rows] - position[cols]
    kd = int(np.abs(offset).max())
    width = 3 * kd + 1
    index = position[cols] * width + 2 * kd + offset
    dtype = np.int32 if n * width < 2**31 else np.int64
    return BandPlan(order.astype(dtype), kd, index.astype(dtype))


class SolverStructure:
    """Pattern-keyed, immutable view of a network's Newton system.

    Nothing a solve sets is stored here, so concurrent solves of the
    pattern can share one structure.  ``banded`` asks for a
    :class:`BandPlan` (``band``), built when the free-node graph is a
    forest; a banded structure keeps no CSC index arrays.
    """

    def __init__(self, network: "Network", banded: bool = False) -> None:
        self.signature = network.pattern_signature()
        self.state = _SolverState(network)
        #: The one block covering the whole network.
        self.whole = ((0, self.state.free.size, 0, self.state.node_count),)
        self._build_scatter_template()
        #: The linear part of the Jacobian's data, in ``_base`` order.
        self._values = self._base.data
        self.band = _band_plan(self._base) if banded else None
        if self.band is not None:
            self._base = None  # the band step reads no index arrays

    # -- assembly template ----------------------------------------------------

    def _build_scatter_template(self) -> None:
        """Precompute where (and in which order) device stamps land.

        scipy sums duplicate COO stamps left to right in the order its
        COO-to-CSC conversion leaves them (stable column bucketing, then
        an unstable in-column sort).  That order depends on the indices
        alone, so letting scipy sort position tags recovers it.
        """
        state = self.state
        linear = state._linear
        self._stamp_slots = None
        self._base = linear
        if not state._dev_maps:
            return  # no devices: the Jacobian is the linear matrix
        size = state.free.size
        rows: list[np.ndarray] = []
        cols: list[np.ndarray] = []
        src: list[np.ndarray] = []
        signs: list[np.ndarray] = []
        offset = 0
        for _model, n1, _n2, f1, f2 in state._dev_maps:
            for a, b, sign in ((f1, f1, 1.0), (f2, f2, 1.0), (f1, f2, -1.0), (f2, f1, -1.0)):
                keep = np.flatnonzero((a >= 0) & (b >= 0))
                rows.append(a[keep])
                cols.append(b[keep])
                src.append(offset + keep)
                signs.append(np.full(keep.size, sign))
            offset += n1.size
        stamp_rows = np.concatenate(rows)
        stamp_cols = np.concatenate(cols)
        bucketed = np.argsort(stamp_cols, kind="stable")
        col_ptr = np.cumsum(np.bincount(stamp_cols, minlength=size))
        tagged = sp.csc_matrix(
            (bucketed.astype(float), stamp_rows[bucketed], np.append(0, col_ptr)),
            shape=linear.shape,
        )
        tagged.sort_indices()
        order = tagged.data.astype(np.intp)
        stamp_rows = stamp_rows[order]
        stamp_cols = stamp_cols[order]
        self._stamp_src = np.concatenate(src)[order]
        self._stamp_sign = np.concatenate(signs)[order]

        # Union pattern of linear matrix + device stamps, computed
        # symbolically (all-ones data) so zero-valued entries cannot
        # drop out of the pattern.
        lin_pattern = sp.csc_matrix(
            (np.ones(linear.nnz), linear.indices, linear.indptr), shape=linear.shape
        )
        stamp_pattern = sp.coo_matrix(
            (np.ones(stamp_rows.size), (stamp_rows, stamp_cols)), shape=linear.shape
        ).tocsc()
        union = (lin_pattern + stamp_pattern).tocsc()
        union.sum_duplicates()  # sorts, and caches the canonical flag

        # Entry keys (col * n + row) ascend strictly in canonical CSC
        # order, so searchsorted maps any (row, col) to its data slot.
        def keys(matrix):
            col_of = np.repeat(np.arange(size), np.diff(matrix.indptr))
            return col_of * size + matrix.indices

        union_keys = keys(union)
        union.data = np.zeros(union.nnz, dtype=float)
        union.data[np.searchsorted(union_keys, keys(linear))] = linear.data
        self._stamp_slots = np.searchsorted(union_keys, stamp_cols * size + stamp_rows)
        self._base = union  # Jacobians share its checked index arrays

    # -- per-solve values -----------------------------------------------------

    def drive(self, network: "Network") -> _Drive:
        """``network``'s pinned voltage values (same pattern)."""
        if network.pattern_signature() != self.signature:
            raise ValueError(
                "structure reuse across different network patterns is invalid"
            )
        return self.state.drive(network._fixed)

    def jacobian_values(self, voltages: np.ndarray) -> np.ndarray:
        """The Jacobian's entries, in the union pattern's order."""
        state = self.state
        if self._stamp_slots is None:
            return self._values
        g = np.concatenate([
            model.conductance(v)
            for (model, *_), v in zip(state._dev_maps, state.device_voltages(voltages))
        ])
        return self._values + np.bincount(
            self._stamp_slots,
            weights=g[self._stamp_src] * self._stamp_sign,
            minlength=self._values.size,
        )

    def jacobian(self, voltages: np.ndarray) -> sp.csc_matrix:
        """Jacobian via the scatter template (no COO round-trip)."""
        if self._stamp_slots is None:
            return self.state._linear
        base = self._base
        data = self.jacobian_values(voltages)
        nonzero = data != 0
        if nonzero.all():
            jacobian = copy.copy(base)
            jacobian.data = data
            return jacobian
        # scipy's sparse sum drops entries that cancel to exactly 0.
        kept = np.append(0, np.cumsum(nonzero))[base.indptr]
        return sp.csc_matrix(
            (data[nonzero], base.indices[nonzero], kept.astype(base.indptr.dtype)),
            shape=base.shape,
        )


class StructureCache:
    """Bounded, thread-safe LRU of :class:`SolverStructure` by pattern key."""

    def __init__(self, maxsize: int = 64, banded: bool = False) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        #: Whether structures are built with a band plan.
        self.banded = banded
        self._entries: OrderedDict[Hashable, SolverStructure] = OrderedDict()
        self._lock = threading.Lock()

    def get(
        self, key: Hashable, build: "Callable[[], Network]"
    ) -> SolverStructure:
        """The cached structure under ``key``; on a miss, the structure
        of the network ``build()`` returns.

        Callers key on content-derived pattern signatures
        (:meth:`~repro.circuit.network.Network.pattern_signature`), so
        mutating a network between solves (a fault-injected cell
        changing its device model, an extra tap) changes the key and
        rebuilds the structure instead of reusing a stale one.
        """
        with self._lock:
            structure = self._entries.get(key)
            if structure is not None:
                self._entries.move_to_end(key)
        if structure is not None:
            obs.count("solver.factor_hits")
            return structure
        obs.count("solver.factor_misses")
        # Unlocked: builds may run in parallel.
        built = SolverStructure(build(), self.banded)
        with self._lock:
            structure = self._entries.setdefault(key, built)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return structure

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


def _block_initial_voltages(
    structure: SolverStructure,
    drive: _Drive,
    blocks: Sequence[tuple[int, int, int, int]],
    initials: "Sequence[np.ndarray | None] | None",
) -> np.ndarray:
    """Each block's caller seed, or its flat start (mean pinned voltage).

    A seed is a full node-voltage vector of the block's own network;
    only its free-node entries are read.
    """
    state = structure.state
    voltages = np.zeros(state.node_count, dtype=float)
    voltages[state.fixed_nodes] = drive.fixed_values
    for b, (f0, f1, n0, n1) in enumerate(blocks):
        nodes = state.free[f0:f1]
        seed = None if initials is None else initials[b]
        if seed is not None:
            seed = np.asarray(seed, dtype=float)
            if seed.shape[0] != n1 - n0:
                raise ValueError("initial guess length mismatch")
            voltages[nodes] = seed[nodes - n0]
            continue
        lo, hi = np.searchsorted(state.fixed_nodes, (n0, n1))
        if hi > lo:
            voltages[nodes] = float(drive.fixed_values[lo:hi].mean())
    return voltages


def _diagonal_block(matrix: sp.csc_matrix, lo: int, hi: int) -> sp.csc_matrix:
    """Rows and columns ``lo:hi`` of a block-diagonal CSC ``matrix``.

    No entry of these columns lies outside the block, so the column
    slice's index arrays are the block's own, shifted by ``lo``.
    """
    if lo == 0 and hi == matrix.shape[0]:
        return matrix
    start, stop = matrix.indptr[lo], matrix.indptr[hi]
    return sp.csc_matrix(
        (
            matrix.data[start:stop],
            matrix.indices[start:stop] - lo,
            matrix.indptr[lo : hi + 1] - start,
        ),
        shape=(hi - lo, hi - lo),
    )


def _newton_steps(
    structure: SolverStructure,
    active: Sequence[tuple[int, int, int, int]],
    voltages: np.ndarray,
    residual: np.ndarray,
) -> np.ndarray:
    """Unclamped Newton steps of the ``active`` blocks (zero elsewhere).

    Without a band plan, each block's diagonal sub-matrix is factorised
    on its own by SuperLU.  With one, a single ``gbsv`` covers every
    active block: a block's band positions are its own free range, and
    no band entry couples two blocks, so the active band is a gather of
    whole rows of the band array.  ``gbsv`` is called directly because
    ``solve_banded`` switches to ``gtsv`` at ``kd = 1``, whose rounding
    differs, and a merged band's ``kd`` is the widest of its blocks'.
    """
    delta = np.zeros(structure.state.free.size)
    plan = structure.band
    if plan is None:
        jacobian = structure.jacobian(voltages)
        for f0, f1, _n0, _n1 in active:
            delta[f0:f1] = spla.splu(_diagonal_block(jacobian, f0, f1)).solve(
                -residual[f0:f1]
            )
        return delta
    band = np.zeros((delta.size, 3 * plan.kd + 1))
    band.reshape(-1)[plan.index] = structure.jacobian_values(voltages)
    if sum(f1 - f0 for f0, f1, _n0, _n1 in active) < delta.size:
        positions = np.concatenate(
            [np.arange(f0, f1) for f0, f1, _n0, _n1 in active]
        )
        band = band[positions]
        nodes = plan.order[positions]
    else:
        nodes = plan.order
    _lu, _pivots, step, info = lapack.dgbsv(
        plan.kd, plan.kd, band.T, -residual[nodes],
        overwrite_ab=True, overwrite_b=True,
    )
    if info != 0:
        raise RuntimeError("Factor is exactly singular")
    delta[nodes] = step
    return delta


#: ``stop_iteration`` of a block whose solve failed.
_FAILED = -2


def newton_block_solve(
    structure: SolverStructure,
    blocks: Sequence[tuple[int, int, int, int]],
    drive: _Drive,
    initials: "Sequence[np.ndarray | None] | None" = None,
    tol: float = 1e-10,
    max_iterations: int = 200,
    v_step_limit: float = 0.25,
) -> "list[Solution | ConvergenceError]":
    """Lockstep damped Newton over independent block sub-systems.

    ``blocks`` lists ``(free_lo, free_hi, node_lo, node_hi)`` ranges;
    a single all-covering block (``structure.whole``) solves one
    network.  ``drive`` holds the pinned voltage values of this solve
    (:meth:`SolverStructure.drive`); ``initials`` optionally seeds each
    block with a node-voltage vector of its own network (``None``
    entries start flat).

    Blocks are independent (no cross-block matrix entries).  Each
    iteration takes the still-active blocks' steps (:func:`_newton_steps`:
    one SuperLU factor per block, or one band solve over all of them)
    and drops every factor after the step.  With per-block clamping,
    line search and freezing once converged, every block follows its
    standalone Newton trajectory bit for bit, whatever else shares the
    batch.

    Returns one entry per block: a
    :class:`~repro.circuit.network.Solution` whose ``voltages`` still
    spans the *merged* node vector (callers slice by node range), or
    the :class:`~repro.circuit.network.ConvergenceError` that block
    failed with.
    """
    state = structure.state
    free = state.free
    voltages = _block_initial_voltages(structure, drive, blocks, initials)
    n_blocks = len(blocks)
    residual = state.residual(voltages, drive)
    norms = np.array(
        [float(np.linalg.norm(residual[f0:f1])) for f0, f1, _n0, _n1 in blocks]
    )
    stop_iteration = np.full(n_blocks, -1, dtype=int)
    failures: dict[int, ConvergenceError] = {}

    for iteration in range(1, max_iterations + 1):
        stop_iteration[(norms <= tol) & (stop_iteration == -1)] = iteration - 1
        active = np.flatnonzero(stop_iteration == -1).tolist()
        if not active:
            break
        obs.count("solver.newton_iterations", len(active))
        obs.count("solver.factorisations", len(active))
        delta = _newton_steps(
            structure, [blocks[b] for b in active], voltages, residual
        )
        for b in active:
            f0, f1, _n0, _n1 = blocks[b]
            step = delta[f0:f1]
            max_step = float(np.max(np.abs(step))) if step.size else 0.0
            if max_step > v_step_limit:
                delta[f0:f1] = step * (v_step_limit / max_step)
        undecided = active
        scales = np.ones(n_blocks)
        for _ in range(40):
            trial = voltages.copy()
            for b in undecided:
                f0, f1, _n0, _n1 = blocks[b]
                trial[free[f0:f1]] += scales[b] * delta[f0:f1]
            trial_residual = state.residual(trial, drive)
            still = []
            for b in undecided:
                f0, f1, _n0, _n1 = blocks[b]
                trial_norm = float(np.linalg.norm(trial_residual[f0:f1]))
                if trial_norm < norms[b] or trial_norm <= tol:
                    voltages[free[f0:f1]] = trial[free[f0:f1]]
                    residual[f0:f1] = trial_residual[f0:f1]
                    norms[b] = trial_norm
                else:
                    scales[b] *= 0.5
                    still.append(b)
            undecided = still
            if not undecided:
                break
        for b in undecided:  # no descent along a fresh Newton direction
            stop_iteration[b] = _FAILED
            failures[b] = ConvergenceError(
                f"line search stalled at residual {norms[b]:.3e} A"
            )
    else:
        # Budget exhausted: accept near-converged blocks, as the
        # reference loop does, and fail on anything genuinely stuck.
        for b in np.flatnonzero(stop_iteration == -1).tolist():
            if norms[b] > tol * 100:
                failures[b] = ConvergenceError(
                    f"Newton failed to converge in {max_iterations} iterations "
                    f"(residual {norms[b]:.3e} A)"
                )
            else:
                stop_iteration[b] = max_iterations
    return [
        failures.get(b) or Solution(voltages, int(stop_iteration[b]), float(norms[b]))
        for b in range(n_blocks)
    ]
