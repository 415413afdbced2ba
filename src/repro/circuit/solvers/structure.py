"""Cached factorisation structures and the lockstep Newton engine.

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
  ``linear + coo(stamps).tocsc()``.

A solve's pinned voltage values stay local to it; the accelerated
backends' warm-start state lives in :class:`WarmStart` slots.

:func:`newton_block_solve` runs the damped Newton iteration over one or
more independent *blocks* (sub-networks merged block-diagonally by the
batched backend).  Each block follows the schedule of a standalone
solve of its network — same initial guess, per-block step clamp,
per-block line search, per-block stopping — and one block is exactly
the ``reference`` backend's solve.

With ``chord=True`` (the accelerated backends' default) the engine runs
*chord* (modified Newton) iterations on warm-started or explicitly
seeded solves: a numeric LU factorisation — including the one left
behind by the previous solve of the same pattern (``WarmStart.lu``) — is
reused across iterations while the residual norm keeps contracting
geometrically, and is refreshed adaptively — on slow contraction, on
damping activation (step clamping or line-search halving), or when a
stale-direction line search stalls.  A stall under a factorisation that
is current at the iterate raises :class:`ConvergenceError` exactly as
full Newton does, so chord mode can only ever *add* factorisations
relative to diverging silently.

Cold flat starts always run full Newton: a cold solve follows the
reference backend's trajectory bit-for-bit, which is what keeps the
accelerated backends inside the parity contract on first-solve paths.
Warm repeats already deviate from the cold reference trajectory (they
land essentially on the true solution, far below ``tol``), and chord
mode preserves exactly that landing: chord iterations converge
linearly, so they would otherwise stop with a residual *just* under
``tol`` where warm full Newton's final quadratic step lands orders of
magnitude lower — with megaohm HRS cells that residual gap is a ~1e-8 V
voltage gap.  Chord mode therefore polishes the residual
:data:`CHORD_TIGHTEN` below ``tol`` with extra back-substitutions (no
factorisations), landing within ~1e-11 V of the warm full-Newton
solution.
"""

from __future__ import annotations

import copy
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ... import obs
from ..network import ConvergenceError, Solution, _Drive, _SolverState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..network import Network

__all__ = [
    "CHORD_CONTRACTION",
    "CHORD_TIGHTEN",
    "SolverStructure",
    "StructureCache",
    "WarmStart",
    "newton_block_solve",
]

#: Worst acceptable per-iteration residual contraction under a reused
#: factorisation.  Chord iterations converge linearly with rate
#: ``||I - J_chord^-1 J(x)||``; once an iteration shrinks the residual
#: by less than this factor the stale Jacobian is no longer paying for
#: itself and the engine refactorises at the current iterate.
CHORD_CONTRACTION = 0.5

#: Chord mode's internal tolerance factor.  A linearly-converging chord
#: iteration stops with the residual barely under ``tol``; full Newton's
#: final quadratic step lands orders of magnitude below it.  With HRS
#: cells in the megaohm range a residual of 1e-12 A still maps to
#: ~1e-8 V of node-voltage slack, so chord mode polishes the residual
#: four orders below ``tol`` (cheap back-substitutions, no extra
#: factorisations) to sit safely inside the 1e-9 V parity contract.
#: Blocks that hit the floating-point residual floor first stop at
#: ``tol`` like full Newton instead of failing.
CHORD_TIGHTEN = 1e-4


class SolverStructure:
    """Pattern-keyed, immutable view of a network's Newton system.

    Nothing a solve sets is stored here, so concurrent solves of the
    pattern can share one structure.
    """

    def __init__(self, network: "Network") -> None:
        self.signature = network.pattern_signature()
        self.state = _SolverState(network)
        #: The one block covering the whole network.
        self.whole = ((0, self.state.free.size, 0, self.state.node_count),)
        self._build_scatter_template()

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

    def jacobian(self, voltages: np.ndarray) -> sp.csc_matrix:
        """Jacobian via the scatter template (no COO round-trip)."""
        state = self.state
        if self._stamp_slots is None:
            return state._linear
        g = np.concatenate([
            model.conductance(v)
            for (model, *_), v in zip(state._dev_maps, state.device_voltages(voltages))
        ])
        base = self._base
        data = base.data + np.bincount(
            self._stamp_slots,
            weights=g[self._stamp_src] * self._stamp_sign,
            minlength=base.nnz,
        )
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


@dataclass
class WarmStart:
    """Where an accelerated backend resumes its next solve of a pattern."""

    free: np.ndarray | None = None  # last converged free-node voltages
    lu: object = None  # most recent numeric LU (chord reuse)


class StructureCache:
    """Bounded, thread-safe LRU of :class:`SolverStructure` by pattern hash,
    plus the accelerated backends' :class:`WarmStart` slot per pattern."""

    def __init__(self, maxsize: int = 64) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._entries: OrderedDict[str, SolverStructure] = OrderedDict()
        self._warm: dict[str, WarmStart] = {}
        self._lock = threading.Lock()

    def get(self, network: "Network") -> SolverStructure:
        """The cached structure for ``network``'s pattern.

        The key is the content-derived pattern hash, so mutating a
        network between solves (a fault-injected cell changing its
        device model, an extra tap) changes the key and rebuilds the
        structure instead of reusing a stale one.
        """
        signature = network.pattern_signature()
        with self._lock:
            structure = self._entries.get(signature)
            if structure is not None:
                self._entries.move_to_end(signature)
        if structure is not None:
            obs.count("solver.factor_hits")
            return structure
        obs.count("solver.factor_misses")
        built = SolverStructure(network)  # unlocked: builds may run in parallel
        with self._lock:
            structure = self._entries.setdefault(signature, built)
            while len(self._entries) > self.maxsize:
                evicted, _ = self._entries.popitem(last=False)
                self._warm.pop(evicted, None)
        return structure

    def warm_start(self, structure: SolverStructure) -> WarmStart:
        """The warm-start slot of a cached ``structure``'s pattern."""
        with self._lock:
            if structure.signature not in self._entries:
                return WarmStart()  # evicted meanwhile: nothing to keep
            return self._warm.setdefault(structure.signature, WarmStart())

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._warm.clear()

    def __len__(self) -> int:
        return len(self._entries)


def _block_initial_voltages(
    structure: SolverStructure,
    drive: _Drive,
    blocks: Sequence[tuple[int, int, int, int]],
    initial: np.ndarray | None,
) -> np.ndarray:
    """Flat-start point (mean pinned voltage) or the caller's guess, per block."""
    state = structure.state
    voltages = np.zeros(state.node_count, dtype=float)
    voltages[state.fixed_nodes] = drive.fixed_values
    if initial is not None:
        initial = np.asarray(initial, dtype=float)
        if initial.shape[0] != voltages.shape[0]:
            raise ValueError("initial guess length mismatch")
        voltages[state.free] = initial[state.free]
        return voltages
    for f0, f1, n0, n1 in blocks:
        lo, hi = np.searchsorted(state.fixed_nodes, (n0, n1))
        if hi > lo:
            voltages[state.free[f0:f1]] = float(drive.fixed_values[lo:hi].mean())
    return voltages


def newton_block_solve(
    structure: SolverStructure,
    blocks: Sequence[tuple[int, int, int, int]],
    drive: _Drive,
    initial: np.ndarray | None = None,
    warm: WarmStart | None = None,
    tol: float = 1e-10,
    max_iterations: int = 200,
    v_step_limit: float = 0.25,
    chord: bool = False,
    chord_contraction: float = CHORD_CONTRACTION,
) -> list[Solution]:
    """Lockstep damped Newton over independent block sub-systems.

    ``blocks`` lists ``(free_lo, free_hi, node_lo, node_hi)`` ranges;
    a single all-covering block (``structure.whole``) solves one
    network.  ``drive`` holds the pinned voltage values of this solve
    (:meth:`SolverStructure.drive`).  Blocks are independent (no cross-block matrix
    entries), so per-block clamping, line search, and freezing once
    converged keep every block on its standalone Newton trajectory.

    ``warm`` is the pattern's :class:`WarmStart` slot: an unseeded solve
    starts from its last landing point, and every solve leaves its
    landing point and last LU there.  ``warm=None`` (``reference``)
    keeps no state.

    ``chord=True`` enables modified-Newton factorisation reuse on
    warm-started or explicitly seeded solves (cold flat starts always
    run full Newton, bit-for-bit the reference trajectory): an LU of
    one iterate — seeded from ``warm.lu`` when a previous solve left
    one behind — serves later iterations while
    every active block keeps contracting by at least
    ``chord_contraction`` per step, and is refreshed when contraction
    slows, when damping activates (a step clamp or a line-search
    halving — both signs the iterate left the basin the factorisation
    was taken in), or when a stale direction stalls the line search.
    Chord solves polish the residual below ``tol * CHORD_TIGHTEN`` so
    their converged voltages match warm full Newton's landing point.

    Returns one :class:`~repro.circuit.network.Solution` per block whose
    ``voltages`` still spans the *merged* node vector; callers slice by
    node range.
    """
    state = structure.state
    free = state.free
    voltages = _block_initial_voltages(structure, drive, blocks, initial)
    warm_started = warm is not None and initial is None and warm.free is not None
    if warm_started:
        voltages[free] = warm.free
        obs.count("solver.warm_starts")

    # Factorisation reuse is restricted to solves that start from a
    # known-good point (a warm start or a caller-provided seed).  A
    # cold flat start runs the exact full-Newton schedule so first
    # solves of a pattern stay on the reference backend's trajectory.
    chord_active = chord and (warm_started or initial is not None)

    n_blocks = len(blocks)
    residual = state.residual(voltages, drive)
    norms = np.array(
        [float(np.linalg.norm(residual[f0:f1])) for f0, f1, _n0, _n1 in blocks]
    )
    stop_iteration = np.full(n_blocks, -1, dtype=int)

    # Chord stops linearly just under the tolerance where full Newton's
    # quadratic final step overshoots far below it; tighten the chord
    # stopping residual so converged voltages match (see CHORD_TIGHTEN).
    stop_tol = tol * CHORD_TIGHTEN if chord_active else tol

    lu = None  # live LU factorisation (reused across iterations by chord)
    lu_fresh = False  # factored at the *current* iterate?
    refresh = True  # force a refactorisation before the next step
    if chord_active and warm is not None and warm.lu is not None:
        # Adopt the factorisation the previous solve of this pattern
        # ended on: near-identical drive points often converge on pure
        # back-substitutions, with zero new factorisations.
        lu = warm.lu
        refresh = False
        obs.count("solver.lu_carryovers")

    for iteration in range(1, max_iterations + 1):
        # At entry a warm start may already satisfy the caller's
        # tolerance; accept it exactly as warm full Newton would (no
        # chord polish), so re-solving an unchanged drive point returns
        # the previous landing unchanged instead of drifting toward the
        # chord iteration's tighter internal tolerance.
        entry_tol = tol if iteration == 1 else stop_tol
        newly_done = (norms <= entry_tol) & (stop_iteration < 0)
        stop_iteration[newly_done] = iteration - 1
        active = int(np.count_nonzero(stop_iteration < 0))
        if active == 0:
            break
        obs.count("solver.newton_iterations", active)
        if lu is None or refresh or not chord_active:
            if lu is not None and chord_active:
                obs.count("solver.chord_refreshes")
            jacobian = structure.jacobian(voltages)
            obs.count("solver.factorisations")
            lu = spla.splu(jacobian)
            lu_fresh = True
            refresh = False
        else:
            lu_fresh = False
        delta = lu.solve(-residual)
        damped = False
        # Frozen blocks stay exactly where their standalone solve ended.
        for b, (f0, f1, _n0, _n1) in enumerate(blocks):
            if stop_iteration[b] >= 0:
                delta[f0:f1] = 0.0
            else:
                seg = delta[f0:f1]
                max_step = float(np.max(np.abs(seg))) if seg.size else 0.0
                if max_step > v_step_limit:
                    delta[f0:f1] = seg * (v_step_limit / max_step)
                    damped = True
        undecided = [b for b in range(n_blocks) if stop_iteration[b] < 0]
        previous_norms = norms.copy()
        scales = np.ones(n_blocks)
        stalled = False
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
                if trial_norm < norms[b] or trial_norm <= stop_tol:
                    voltages[free[f0:f1]] = trial[free[f0:f1]]
                    residual[f0:f1] = trial_residual[f0:f1]
                    norms[b] = trial_norm
                else:
                    scales[b] *= 0.5
                    if norms[b] > tol:
                        # Halvings during the sub-``tol`` chord polish
                        # are floating-point noise near the residual
                        # floor, not a basin change — no refresh.
                        damped = True
                    still.append(b)
            undecided = still
            if not undecided:
                break
        else:
            stalled = True
        if stalled:
            if not lu_fresh:
                # A stale chord direction stopped descending.  Blocks
                # that accepted a trial this iteration keep the
                # progress; the rest retry from a factorisation taken
                # at the current iterate before the solve is declared
                # stuck — the guaranteed fallback to full Newton.
                obs.count("solver.chord_refreshes")
                lu = None
                refresh = True
                continue
            # Fresh factorisation and still no descent: blocks already
            # inside the caller's tolerance have simply hit the
            # floating-point residual floor during the chord polish —
            # accept them where full Newton would have stopped anyway.
            for b in list(undecided):
                if norms[b] <= tol:
                    stop_iteration[b] = iteration
                    undecided.remove(b)
            if not undecided:
                continue
            worst = max(undecided, key=lambda b: norms[b])
            raise ConvergenceError(
                f"line search stalled at residual {norms[worst]:.3e} A"
            )
        if chord_active and not refresh:
            slow = any(
                norms[b] > tol
                and norms[b] > chord_contraction * previous_norms[b]
                for b in range(n_blocks)
                if stop_iteration[b] < 0
            )
            if damped or slow:
                refresh = True
    else:
        # Budget exhausted: accept near-converged blocks, as the
        # reference loop does, and fail on anything genuinely stuck.
        lagging = stop_iteration < 0
        if np.any(norms[lagging] > tol * 100):
            worst = float(norms[lagging].max())
            raise ConvergenceError(
                f"Newton failed to converge in {max_iterations} iterations "
                f"(residual {worst:.3e} A)"
            )
        stop_iteration[lagging] = max_iterations

    if warm is not None:
        warm.free = voltages[free].copy()
        if lu is not None:
            warm.lu = lu
    return [
        Solution(voltages, int(stop_iteration[b]), float(norms[b]))
        for b in range(n_blocks)
    ]
