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

import dataclasses
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..config import SystemConfig
from .cell import CellModel
from .crosspoint import BASELINE_BIAS, BiasScheme
from .network import Network
from .selector import OnStackModel, SelectorModel

__all__ = ["ReducedSolution", "ReducedArrayModel", "ResetNetwork"]


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


@dataclass(frozen=True)
class ResetNetwork:
    """One RESET selection's reduced network and where its drive is pinned.

    ``drivers`` lists the pinned nodes that carry a selected column's
    drive voltage, as ``(node, column)`` pairs; every other pinned node
    (the half-select rail, the WL grounds and taps) is set by the bias
    scheme alone.  One build therefore serves every drive of the same
    selection and bias (:meth:`redriven`).
    """

    network: Network
    row: int
    cols: tuple[int, ...]
    wl_nodes: np.ndarray  # by column
    bl_nodes: dict[int, np.ndarray]  # col -> nodes by row
    drivers: tuple[tuple[int, int], ...]

    def redriven(self, drive: dict[int, float]) -> "ResetNetwork":
        """This selection's network at per-column ``drive`` voltages.

        Equal to a fresh build at ``drive`` in every element, pinned
        node, pinned value and signature; see :meth:`Network.redriven`.
        """
        network = self.network.redriven(
            {node: drive[c] for node, c in self.drivers}
        )
        return dataclasses.replace(self, network=network)


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

        built = self._build_reset_network(*self._normalise(row, cols, v_applied), bias)
        with obs.span("solve.reduced", array=self.config.array.size):
            solution = get_backend(self.solver).solve(built.network)
        return self._extract(solution, built)

    def reset_network(
        self,
        row: int,
        cols: tuple[int, ...] | list[int],
        v_applied: float | dict[int, float] | None = None,
        bias: BiasScheme = BASELINE_BIAS,
    ) -> "ResetNetwork":
        """The reduced network of one RESET, ready to be re-driven.

        Build it once and hand :meth:`ResetNetwork.redriven` copies to
        :meth:`solve_networks`: a copy is the network a fresh build at
        its drive would give, without the build.  The template's element
        lists are flushed and its signature memoised here, so copies can
        be taken from any thread without writing to it.
        """
        built = self._build_reset_network(*self._normalise(row, cols, v_applied), bias)
        built.network.pattern_signature()
        return built

    def solve_networks(
        self,
        networks: "list[ResetNetwork]",
        initials: "list[np.ndarray | None] | None" = None,
        ensemble: bool = False,
        chunk: int | None = None,
    ) -> "list[tuple[ReducedSolution, np.ndarray]]":
        """Solve built RESET networks, as ``(solution, voltages)`` pairs.

        The batch goes to the backend's ``solve_many``, so backends
        that stack solves (``batched``) amortise Python overhead across
        it.  With ``ensemble`` it goes to the chunked ``solve_ensemble``
        instead: an ensemble's networks share one sparsity pattern but
        may carry per-network drives (sampled pump droop), and stack
        block-diagonally ``chunk`` at a time.  ``initials`` optionally
        seeds each solve with a full node-voltage vector (a previous
        solution's ``voltages`` for the same selection and bias, whose
        node indices line up); ``None`` entries start cold.
        """
        from .solvers import get_backend

        backend = get_backend(self.solver)
        nets = [built.network for built in networks]
        span = "solve.reduced.ensemble" if ensemble else "solve.reduced.batch"
        with obs.span(span, array=self.config.array.size, batch=len(nets)):
            if ensemble:
                solutions = backend.solve_ensemble(nets, initials=initials, chunk=chunk)
            else:
                solutions = backend.solve_many(nets, initials=initials)
        return [
            (self._extract(solution, built), solution.voltages)
            for solution, built in zip(solutions, networks)
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
    ) -> "ResetNetwork":
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
        drivers: list[tuple[int, int]] = []  # (pinned node, its column)

        def pin_drive(node: int, c: int) -> None:
            net.fix_voltage(node, drive[c])
            drivers.append((int(node), c))

        for c in cols:
            nodes = np.asarray(net.add_nodes(a))  # by row
            bl_nodes[c] = nodes
            driver = net.add_node()
            pin_drive(driver, c)
            net.add_resistor(driver, nodes[0], r_wire)
            net.add_resistors(nodes[:-1], nodes[1:], r_wire)
            if bias.bl_drive_both_ends:
                top = net.add_node()
                pin_drive(top, c)
                net.add_resistor(top, nodes[a - 1], r_wire)
            if bias.bl_tap_every:
                for r in range(bias.bl_tap_every, a, bias.bl_tap_every):
                    pin_drive(nodes[r], c)
            # Half-selected cells on this BL: unselected WLs at Vrst/2.
            halves = np.delete(nodes, row)
            net.add_devices(halves, np.full(halves.size, rail), self.leak)
            # The selected cell couples this BL to the selected WL; its
            # selector is fully on, so it presents a saturating load.
            net.add_device(nodes[row], wl_nodes[c], self.on_stack)

        return ResetNetwork(net, row, cols, wl_nodes, bl_nodes, tuple(drivers))

    def _extract(self, solution, built: "ResetNetwork") -> ReducedSolution:
        """Read the figure-facing quantities out of a solved network."""
        v_half = self.config.cell.v_reset / 2.0
        r_wire = self.config.array.r_wire
        row, cols = built.row, built.cols
        wl_nodes, bl_nodes = built.wl_nodes, built.bl_nodes

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
