"""Scheme abstractions for voltage-drop mitigation techniques.

A mitigation scheme is described along four orthogonal axes, mirroring
the paper's taxonomy (Table II):

* a **bias scheme** — how array terminals are driven (DSGB grounds,
  DSWD drivers, oracle taps);
* a **voltage regulator** — the WD voltage applied when resetting a
  given cell (static Vrst, DRVR row sections, UDRVR column levels);
* a **partitioner** — how the per-MAT RESET bit vector of a write is
  transformed into the concurrently-reset set (identity, PR's
  Algorithm 1, D-BL dummy resets);
* **system flags** — SCH hot-line scheduling and RBDL row-biased data
  layout, plus whether the scheme remains compatible with inter/intra
  line wear leveling (Table II's last column).

:class:`Scheme` bundles these with the chip-level overhead factors the
energy/area analysis consumes, and :class:`SchemeLatencyModel`
precomputes the (n_bits, row, column-group) RESET latency tables the
memory-system simulator looks up on every write.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .. import obs
from ..circuit.crosspoint import BASELINE_BIAS, BiasScheme
from ..config import SystemConfig
from ..xpoint.vmap import ArrayIRModel, get_ir_model

__all__ = [
    "ChipOverheads",
    "VoltageRegulator",
    "StaticRegulator",
    "RowSectionRegulator",
    "MatrixRegulator",
    "WritePlan",
    "WritePlans",
    "Partitioner",
    "IdentityPartitioner",
    "Scheme",
    "SchemeLatencyModel",
]


@dataclass(frozen=True)
class ChipOverheads:
    """Multiplicative chip-level cost factors relative to the baseline.

    The paper reports these as scalar percentages (§III-B, §IV-D);
    composite schemes add the deltas of their parts.
    """

    area_factor: float = 1.0
    leakage_factor: float = 1.0
    pump_area_factor: float = 1.0
    pump_leakage_factor: float = 1.0
    pump_charge_latency_factor: float = 1.0
    pump_charge_energy_factor: float = 1.0
    write_current_factor: float = 1.0  # peak RESET current vs baseline budget

    def combine(self, other: "ChipOverheads") -> "ChipOverheads":
        """Stack two overhead sets by adding their deltas."""

        def add(a: float, b: float) -> float:
            return 1.0 + (a - 1.0) + (b - 1.0)

        return ChipOverheads(
            area_factor=add(self.area_factor, other.area_factor),
            leakage_factor=add(self.leakage_factor, other.leakage_factor),
            pump_area_factor=add(self.pump_area_factor, other.pump_area_factor),
            pump_leakage_factor=add(
                self.pump_leakage_factor, other.pump_leakage_factor
            ),
            pump_charge_latency_factor=add(
                self.pump_charge_latency_factor, other.pump_charge_latency_factor
            ),
            pump_charge_energy_factor=add(
                self.pump_charge_energy_factor, other.pump_charge_energy_factor
            ),
            write_current_factor=max(
                self.write_current_factor, other.write_current_factor
            ),
        )


class VoltageRegulator:
    """Base regulator: the WD voltage used to reset cell (row, col)."""

    def matrix(self, model: ArrayIRModel) -> np.ndarray:
        """Full (A, A) applied-voltage matrix for map generation."""
        raise NotImplementedError

    def max_voltage(self, model: ArrayIRModel) -> float:
        """Highest level the charge pump must supply."""
        return float(self.matrix(model).max())


@dataclass(frozen=True)
class StaticRegulator(VoltageRegulator):
    """One fixed RESET voltage for the whole array (baseline)."""

    voltage: float | None = None  # None -> the configured Vrst

    def matrix(self, model: ArrayIRModel) -> np.ndarray:
        a = model.config.array.size
        v = self.voltage if self.voltage is not None else model.config.cell.v_reset
        return np.full((a, a), float(v))


@dataclass(frozen=True)
class RowSectionRegulator(VoltageRegulator):
    """DRVR: one Vrst level per row section (Fig. 7a).

    ``levels[s]`` is applied when the selected row falls in section
    ``s``; sections are equal row bands indexed by the row-address MSBs.
    """

    levels: tuple[float, ...]

    def matrix(self, model: ArrayIRModel) -> np.ndarray:
        a = model.config.array.size
        sections = len(self.levels)
        if a % sections:
            raise ValueError(f"{sections} sections do not divide array size {a}")
        per_row = np.repeat(np.asarray(self.levels, dtype=float), a // sections)
        return np.repeat(per_row[:, None], a, axis=1)


@dataclass(frozen=True)
class MatrixRegulator(VoltageRegulator):
    """UDRVR: per-row-section and per-column-group levels (Fig. 12a)."""

    row_levels: tuple[float, ...]  # DRVR-style BL compensation per section
    col_deltas: tuple[float, ...]  # per column-mux group reduction (<= 0)

    def matrix(self, model: ArrayIRModel) -> np.ndarray:
        a = model.config.array.size
        rows = np.repeat(
            np.asarray(self.row_levels, dtype=float), a // len(self.row_levels)
        )
        cols = np.repeat(
            np.asarray(self.col_deltas, dtype=float), a // len(self.col_deltas)
        )
        return rows[:, None] + cols[None, :]


@dataclass(frozen=True)
class WritePlan:
    """Outcome of a partitioner on one MAT's 8-bit write slice.

    ``reset_groups`` / ``set_groups`` are the column-mux group indices
    that perform a RESET / SET in this write (after any additions);
    ``extra_resets`` / ``extra_sets`` count operations added beyond the
    data-required ones (PR's benign pairs, D-BL's dummy resets).
    """

    reset_groups: tuple[int, ...]
    set_groups: tuple[int, ...]
    extra_resets: int = 0
    extra_sets: int = 0

    @property
    def n_concurrent_resets(self) -> int:
        return len(self.reset_groups)


class WritePlans(NamedTuple):
    """Plans of ``N`` MAT slices, one row per slice.

    ``resets`` / ``sets`` are the final ``(N, width)`` RESET / SET masks
    (after any additions); ``extra_resets`` / ``extra_sets`` are the
    ``(N,)`` counts of operations added beyond the data-required ones.
    """

    resets: np.ndarray
    sets: np.ndarray
    extra_resets: np.ndarray
    extra_sets: np.ndarray


class Partitioner:
    """Transforms MATs' required RESET/SET bits into write plans.

    A subclass implements ``_plan_many`` once, vectorised over rows of
    masks that ``plan_many`` has already checked; ``plan`` is its
    one-row case.  Subclasses are frozen dataclasses, so equal
    partitioners make equal (hashable) schemes.
    """

    def plan_many(self, resets: np.ndarray, sets: np.ndarray) -> WritePlans:
        """Plans of ``(N, width)`` boolean RESET / SET masks."""
        resets = np.asarray(resets, dtype=bool)
        sets = np.asarray(sets, dtype=bool)
        if resets.ndim != 2 or resets.shape != sets.shape:
            raise ValueError("reset and set masks must be (N, width) of equal shape")
        if (resets & sets).any():
            raise ValueError("a bit cannot be both RESET and SET in one write")
        return self._plan_many(resets, sets)

    def _plan_many(self, resets: np.ndarray, sets: np.ndarray) -> WritePlans:
        raise NotImplementedError

    def plan(self, reset_bits: np.ndarray, set_bits: np.ndarray) -> WritePlan:
        """``reset_bits`` / ``set_bits`` are one MAT's boolean masks."""
        plans = self.plan_many(
            np.reshape(reset_bits, (1, -1)), np.reshape(set_bits, (1, -1))
        )
        return WritePlan(
            reset_groups=tuple(np.flatnonzero(plans.resets[0]).tolist()),
            set_groups=tuple(np.flatnonzero(plans.sets[0]).tolist()),
            extra_resets=int(plans.extra_resets[0]),
            extra_sets=int(plans.extra_sets[0]),
        )


@dataclass(frozen=True)
class IdentityPartitioner(Partitioner):
    """No transformation: reset exactly the data-required bits."""

    def _plan_many(self, resets: np.ndarray, sets: np.ndarray) -> WritePlans:
        none = np.zeros(len(resets), dtype=np.int64)
        return WritePlans(resets.copy(), sets.copy(), none, none.copy())


@dataclass(frozen=True)
class Scheme:
    """A complete voltage-drop mitigation configuration."""

    name: str
    bias: BiasScheme = BASELINE_BIAS
    regulator: VoltageRegulator = field(default_factory=StaticRegulator)
    partitioner: Partitioner = field(default_factory=IdentityPartitioner)
    overheads: ChipOverheads = field(default_factory=ChipOverheads)
    scheduling: bool = False  # SCH [13,14]: hot lines to fast rows
    row_biased_layout: bool = False  # RBDL [15]
    wear_leveling_compatible: bool = True  # Table II last column
    reset_before_set: bool = False  # PR runs the RESET phase first
    sneak_scale: float = 1.0  # RBDL: leakage relative to all-LRS worst case
    # Extra line writes per demand write: wear-leveling swap migrations
    # for compatible schemes; SCH page migrations plus RBDL row-shift
    # maintenance otherwise ("they introduce more writes", §III-C).
    maintenance_write_rate: float = 0.02
    description: str = ""

    def effective_config(self, config: SystemConfig) -> SystemConfig:
        """Array configuration as seen under this scheme's data layout."""
        if self.sneak_scale == 1.0:
            return config
        return config.with_array(
            sneak_boost=config.array.sneak_boost * self.sneak_scale
        )


WRITE_RETRY_LATENCY = 10e-6
"""Latency charged for a RESET whose effective voltage falls below the
write-failure floor [26].  Real controllers program-and-verify: a failed
pulse is retried with boosted bias, bounding the cost instead of hanging
the bank forever.  Only design points outside the paper's baseline
(10 nm wires, Kr = 500 selectors) ever hit this."""


class SchemeLatencyModel:
    """Precomputed RESET-latency lookup tables for one (config, scheme).

    ``table[n-1, row, group]`` is the RESET latency of the worst cell
    position within column group ``group`` on ``row`` when ``n`` cells
    are reset concurrently in the MAT.  The memory simulator reduces a
    write to ``max`` over its reset groups.  Write-failing operating
    points are charged :data:`WRITE_RETRY_LATENCY` instead of infinity.

    Equation 1 runs on each (row, group)'s lowest v_eff only: it is
    non-increasing, rounding included, so that is the bytes of the
    group's slowest cell (DESIGN.md, "Reduce, then evaluate").

    Without a ``context`` the tables come from the shared module-level
    model on ``solver`` (``None``: the default backend).
    """

    def __init__(
        self,
        config: SystemConfig,
        scheme: Scheme,
        context=None,
        solver: str | None = None,
    ) -> None:
        self.config = scheme.effective_config(config)
        self.scheme = scheme
        # An engine context supplies its solver-threaded, profile-cached
        # nominal model; latency tables are a design-time calibration, so
        # the model is fault-free either way.
        if context is not None:
            self.ir_model = context.nominal_ir_model(self.config)
        else:
            self.ir_model = get_ir_model(self.config, solver=solver)
        a = config.array.size
        width = config.array.data_width
        with obs.span("latency.tables", scheme=scheme.name):
            v_matrix = scheme.regulator.matrix(self.ir_model)
            # One BL-drop gather serves all ``width`` maps.  Worst column
            # position within each group: intra-line wear leveling rotates
            # data over all of a group's 64 BLs, so the slowest position
            # (the lowest v_eff) bounds the group (under DSGB that is the
            # group's centre, not its far edge).
            maps = self.ir_model.v_eff_maps(v_matrix, range(1, width + 1), scheme.bias)
            lowest = np.stack([v.reshape(a, width, -1).min(axis=2) for v in maps])
            latency = self.ir_model.cell_model.reset_latency(lowest)
            self.table = np.minimum(latency, WRITE_RETRY_LATENCY)
        set_energy = config.cell.e_set_per_bit
        self.set_latency = set_energy / (config.cell.v_set * config.cell.i_set)

    def worst_case_write_latency(self) -> float:
        """Worst write latency over all 8-bit RESET patterns and rows.

        Enumerates every possible required-RESET mask, runs it through
        the scheme's partitioner, and takes the slowest resulting plan on
        the slowest row.  This is the array RESET budget the paper quotes
        (2.3 us for the 512x512 baseline, 71 ns under UDRVR+PR).
        """
        width = self.config.array.data_width
        patterns = (np.arange(1, 1 << width)[:, None] >> np.arange(width)) & 1
        resets = patterns.astype(bool)
        plans = self.scheme.partitioner.plan_many(resets, ~resets)
        # The slowest row's RESET phase plus the SET phase is the slowest
        # row's write, since rounding is monotone (max fl(a + s) =
        # fl(max a + s)); a plan's RESET phase is its slowest group.
        slowest = self.table[:, self._worst_rows(), :].max(axis=1)  # (n, group)
        counts = plans.resets.sum(axis=1)
        reset = np.where(plans.resets, slowest[counts - 1], 0.0).max(axis=1)
        set_phase = np.where(plans.sets.any(axis=1), self.set_latency, 0.0)
        return float((reset + set_phase).max())

    def _worst_rows(self) -> np.ndarray:
        """Rows that can host the slowest RESET (section boundaries)."""
        a = self.config.array.size
        sections = self.config.array.drvr_sections
        boundaries = np.arange(sections) * (a // sections)
        return np.unique(np.concatenate([boundaries, boundaries + a // sections - 1]))
