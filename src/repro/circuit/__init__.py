"""Circuit-level substrate: selectors, cells, wires, and the nodal
solvers that compute IR drop in cross-point arrays."""

from .cell import CellModel, CellState
from .crosspoint import BASELINE_BIAS, BiasScheme, FullArrayModel, FullArraySolution
from .equivalent import WordlineDropModel
from .line_model import ReducedArrayModel, ReducedSolution, ResetNetwork
from .network import GROUND, ConvergenceError, Network, Solution
from .selector import OnStackModel, SelectorModel, fit_selectivity_shape
from .wire import wire_resistance, wire_resistance_table

__all__ = [
    "CellModel",
    "CellState",
    "BASELINE_BIAS",
    "BiasScheme",
    "FullArrayModel",
    "FullArraySolution",
    "WordlineDropModel",
    "ReducedArrayModel",
    "ReducedSolution",
    "ResetNetwork",
    "GROUND",
    "ConvergenceError",
    "Network",
    "Solution",
    "OnStackModel",
    "SelectorModel",
    "fit_selectivity_shape",
    "wire_resistance",
    "wire_resistance_table",
]
