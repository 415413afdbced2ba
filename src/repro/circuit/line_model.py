"""Reduced cross-point IR-drop model: selected lines only.

During a RESET the only significant currents flow through the selected
BL(s), the selected WL, and the half-selected cells hanging off them;
cells in the unselected block see ~0 V (both terminals at ``Vrst/2``)
and the unselected lines are actively driven to ``Vrst/2`` by their
drivers.  The reduced model therefore keeps the full nonlinear ladder of
each *selected* line — every wire segment and every half-selected
selector — and replaces the unselected lines with ideal half-voltage
rails.

This shrinks the network from ``2*A*A`` nodes to ``(N+1)*A`` for an
N-bit RESET, making full-array latency/endurance maps tractable.  The
approximation is validated against the exact solver of
:mod:`repro.circuit.crosspoint` in ``tests/circuit/test_reduced_vs_full``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..config import SystemConfig
from .cell import CellModel
from .crosspoint import BASELINE_BIAS, BiasScheme
from .network import Network
from .selector import OnStackModel, SelectorModel

__all__ = ["ReducedSolution", "ReducedArrayModel"]


@dataclass
class ReducedSolution:
    """Solution of one (multi-bit) RESET in the reduced model."""

    v_eff: dict[tuple[int, int], float]  # (row, col) -> effective Vrst
    bl_profiles: dict[int, np.ndarray]  # col -> BL junction voltages by row
    wl_profile: np.ndarray  # WL junction voltages by column
    cell_currents: dict[tuple[int, int], float]
    total_wl_current: float  # current returning at the decoder end
    sneak_current: float  # aggregate half-selected leakage

    def worst_v_eff(self) -> float:
        """Smallest effective RESET voltage among the selected cells."""
        return min(self.v_eff.values())


class ReducedArrayModel:
    """Fast IR-drop model of a cross-point MAT under RESET.

    ``solver`` selects the backend used for the Newton solves (see
    :mod:`repro.circuit.solvers`); it is stored by name so models stay
    picklable for the process-pool executors — workers resolve their own
    backend singleton on first use.
    """

    def __init__(self, config: SystemConfig, solver: str | None = None) -> None:
        from .solvers import solver_name

        self.config = config
        self.solver = solver_name(solver)
        self.cell_model = CellModel.from_params(config.cell)
        self.selector = SelectorModel.from_params(
            config.array.selector, config.cell.i_on, config.cell.v_reset
        )
        # Half-selected cells sink a nearly constant sneak current of
        # Ion/Kr once biased past the selector knee -- the way the paper
        # counts sneak ("1022 half-selected cells generating sneak
        # current").  sneak_boost rescales it for calibration studies.
        self.leak = OnStackModel(
            i_on=config.array.sneak_boost * config.cell.i_on
            / config.array.selector.kr,
            v_sat=0.6,
        )
        self.on_stack = OnStackModel(config.cell.i_on)

    def solve_reset(
        self,
        row: int,
        cols: tuple[int, ...] | list[int],
        v_applied: float | dict[int, float] | None = None,
        bias: BiasScheme = BASELINE_BIAS,
    ) -> ReducedSolution:
        """Solve a RESET of the cells ``(row, c)`` for ``c`` in ``cols``.

        Parameters mirror
        :meth:`repro.circuit.crosspoint.FullArrayModel.solve_reset`.
        """
        from .solvers import get_backend

        row, cols, drive = self._normalise(row, cols, v_applied)
        net, wl_nodes, bl_nodes = self._build_reset_network(row, cols, drive, bias)
        with obs.span("solve.reduced", array=self.config.array.size):
            solution = get_backend(self.solver).solve(net)
        return self._extract(solution, row, cols, wl_nodes, bl_nodes)

    def solve_reset_many(
        self,
        selections: "list[tuple[int, tuple[int, ...]]]",
        v_applied: float | dict[int, float] | None = None,
        bias: BiasScheme = BASELINE_BIAS,
        initials: "list[np.ndarray | None] | None" = None,
    ) -> "list[ReducedSolution]":
        """Solve several independent RESETs ``(row, cols)`` at once.

        Equivalent to calling :meth:`solve_reset` per selection, but the
        whole batch is handed to the backend's ``solve_many`` so backends
        that stack solves (``batched``) amortise Python overhead across
        the batch.  ``initials`` optionally seeds
        each solve with a full node-voltage vector (continuation from an
        adjacent drive point); ``None`` entries start cold.
        """
        return [
            solution
            for solution, _voltages in self.solve_reset_batch(
                selections, v_applied, bias, initials
            )
        ]

    def solve_reset_batch(
        self,
        selections: "list[tuple[int, tuple[int, ...]]]",
        v_applied: float | dict[int, float] | None = None,
        bias: BiasScheme = BASELINE_BIAS,
        initials: "list[np.ndarray | None] | None" = None,
    ) -> "list[tuple[ReducedSolution, np.ndarray]]":
        """Like :meth:`solve_reset_many`, returning ``(solution, voltages)``.

        The second element of each pair is the raw node-voltage vector of
        the solved network — the exact shape a later call can pass back
        via ``initials`` to continuation-seed the same ``(row, cols)``
        selection at a nearby drive voltage.  The reduced-network build
        is deterministic for a fixed selection and bias, so node indices
        line up between the producing and consuming solves.
        """
        from .solvers import get_backend

        prepared = [
            self._normalise(row, cols, v_applied) for row, cols in selections
        ]
        built = [
            self._build_reset_network(row, cols, drive, bias)
            for row, cols, drive in prepared
        ]
        with obs.span(
            "solve.reduced.batch", array=self.config.array.size, batch=len(built)
        ):
            solutions = get_backend(self.solver).solve_many(
                [net for net, _wl, _bl in built], initials=initials
            )
        return [
            (
                self._extract(solution, row, cols, wl_nodes, bl_nodes),
                solution.voltages,
            )
            for solution, (row, cols, _drive), (_net, wl_nodes, bl_nodes) in zip(
                solutions, prepared, built
            )
        ]

    def solve_reset_ensemble(
        self,
        jobs: "list[tuple[int, tuple[int, ...], float | dict[int, float] | None]]",
        bias: BiasScheme = BASELINE_BIAS,
        initials: "list[np.ndarray | None] | None" = None,
        chunk: int | None = None,
    ) -> "list[tuple[ReducedSolution, np.ndarray]]":
        """Solve a Monte Carlo ensemble of RESET jobs with per-job drive.

        Each job is ``(row, cols, v_applied)`` — unlike
        :meth:`solve_reset_batch`, the drive voltage varies *per job*,
        which is what an ensemble of array instances with sampled pump
        droop needs.  All jobs share the array geometry, so their
        networks share one sparsity pattern and the whole flat batch
        goes through the backend's ``solve_ensemble`` (chunked
        block-diagonal stacking on ``batched``).  Returns
        ``(solution, voltages)`` pairs like :meth:`solve_reset_batch`.
        """
        from .solvers import get_backend

        prepared = [
            self._normalise(row, cols, v_applied) for row, cols, v_applied in jobs
        ]
        built = [
            self._build_reset_network(row, cols, drive, bias)
            for row, cols, drive in prepared
        ]
        with obs.span(
            "solve.reduced.ensemble",
            array=self.config.array.size,
            batch=len(built),
        ):
            solutions = get_backend(self.solver).solve_ensemble(
                [net for net, _wl, _bl in built],
                initials=initials,
                chunk=chunk,
            )
        return [
            (
                self._extract(solution, row, cols, wl_nodes, bl_nodes),
                solution.voltages,
            )
            for solution, (row, cols, _drive), (_net, wl_nodes, bl_nodes) in zip(
                solutions, prepared, built
            )
        ]

    def _normalise(
        self,
        row: int,
        cols: tuple[int, ...] | list[int],
        v_applied: float | dict[int, float] | None,
    ) -> tuple[int, tuple[int, ...], dict[int, float]]:
        """Validate a selection and resolve per-column drive voltages."""
        a = self.config.array.size
        cols = tuple(sorted(set(cols)))
        if not 0 <= row < a:
            raise ValueError(f"row {row} outside array of size {a}")
        if not cols:
            raise ValueError("at least one selected column is required")
        if any(not 0 <= c < a for c in cols):
            raise ValueError(f"columns {cols} outside array of size {a}")

        if v_applied is None:
            v_applied = self.config.cell.v_reset
        drive = (
            {c: float(v_applied) for c in cols}
            if not isinstance(v_applied, dict)
            else {c: float(v_applied[c]) for c in cols}
        )
        return row, cols, drive

    def _build_reset_network(
        self,
        row: int,
        cols: tuple[int, ...],
        drive: dict[int, float],
        bias: BiasScheme,
    ) -> tuple[Network, np.ndarray, dict[int, np.ndarray]]:
        """Construct the reduced RESET network (order is load-bearing:
        the ``reference`` backend's results are byte-locked to it)."""
        a = self.config.array.size
        v_half = self.config.cell.v_reset / 2.0
        r_wire = self.config.array.r_wire

        net = Network()
        wl_nodes = np.asarray(net.add_nodes(a))  # by column
        rail = net.add_node()
        net.fix_voltage(rail, v_half)

        # Selected WL: decoder ground at the left end (plus DSGB / taps).
        ground_terminal = net.add_node()
        net.fix_voltage(ground_terminal, 0.0)
        net.add_resistor(ground_terminal, wl_nodes[0], r_wire)
        net.add_resistors(wl_nodes[:-1], wl_nodes[1:], r_wire)
        if bias.wl_ground_both_ends:
            right = net.add_node()
            net.fix_voltage(right, 0.0)
            net.add_resistor(right, wl_nodes[a - 1], r_wire)
        if bias.wl_tap_every:
            for c in range(bias.wl_tap_every, a, bias.wl_tap_every):
                net.fix_voltage(wl_nodes[c], 0.0)

        # Half-selected cells on the selected WL: unselected BLs at Vrst/2.
        unselected_wl = np.delete(wl_nodes, cols)
        net.add_devices(np.full(unselected_wl.size, rail), unselected_wl, self.leak)

        # Each selected BL is its own ladder driven from the bottom.
        bl_nodes: dict[int, np.ndarray] = {}
        for c in cols:
            nodes = np.asarray(net.add_nodes(a))  # by row
            bl_nodes[c] = nodes
            driver = net.add_node()
            net.fix_voltage(driver, drive[c])
            net.add_resistor(driver, nodes[0], r_wire)
            net.add_resistors(nodes[:-1], nodes[1:], r_wire)
            if bias.bl_drive_both_ends:
                top = net.add_node()
                net.fix_voltage(top, drive[c])
                net.add_resistor(top, nodes[a - 1], r_wire)
            if bias.bl_tap_every:
                for r in range(bias.bl_tap_every, a, bias.bl_tap_every):
                    net.fix_voltage(nodes[r], drive[c])
            # Half-selected cells on this BL: unselected WLs at Vrst/2.
            halves = np.delete(nodes, row)
            net.add_devices(halves, np.full(halves.size, rail), self.leak)
            # The selected cell couples this BL to the selected WL; its
            # selector is fully on, so it presents a saturating load.
            net.add_device(nodes[row], wl_nodes[c], self.on_stack)

        return net, wl_nodes, bl_nodes

    def _extract(
        self,
        solution,
        row: int,
        cols: tuple[int, ...],
        wl_nodes: np.ndarray,
        bl_nodes: dict[int, np.ndarray],
    ) -> ReducedSolution:
        """Read the figure-facing quantities out of a solved network."""
        v_half = self.config.cell.v_reset / 2.0
        r_wire = self.config.array.r_wire

        voltages = solution.voltages
        wl_profile = voltages[wl_nodes]
        bl_profiles = {c: voltages[nodes] for c, nodes in bl_nodes.items()}
        v_eff = {
            (row, c): float(bl_profiles[c][row] - wl_profile[c]) for c in cols
        }
        cell_currents = {
            key: float(self.on_stack.current(value)) for key, value in v_eff.items()
        }
        total_wl_current = abs(
            (solution.voltage(wl_nodes[0]) - 0.0) / r_wire
        )
        # Accumulation order (column-major, selected row skipped) is
        # load-bearing: the reference backend's payloads are byte-locked.
        sneak = 0.0
        for c in cols:
            currents = self.leak.current(bl_profiles[c] - v_half).tolist()
            del currents[row]
            sneak = sum(currents, sneak)
        return ReducedSolution(
            v_eff=v_eff,
            bl_profiles=bl_profiles,
            wl_profile=wl_profile,
            cell_currents=cell_currents,
            total_wl_current=float(total_wl_current),
            sneak_current=float(sneak),
        )

    # -- convenience wrappers -------------------------------------------------

    def effective_voltage(
        self,
        row: int,
        col: int,
        v_applied: float | None = None,
        bias: BiasScheme = BASELINE_BIAS,
    ) -> float:
        """Effective RESET voltage of a single selected cell."""
        result = self.solve_reset(row, (col,), v_applied, bias)
        return result.v_eff[(row, col)]

    def reset_latency(
        self,
        row: int,
        col: int,
        v_applied: float | None = None,
        bias: BiasScheme = BASELINE_BIAS,
    ) -> float:
        """RESET latency (s) of a single selected cell (Equation 1)."""
        return float(
            self.cell_model.reset_latency(
                self.effective_voltage(row, col, v_applied, bias)
            )
        )
