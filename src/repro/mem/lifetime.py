"""Main-memory lifetime estimation under non-stop writes (Fig. 5b).

The paper's metric (§III-A, after [33]): non-stop writes arrive at every
bank, each write carries the worst-case data pattern (50% of the line's
cells change, the Flip-N-Write bound), perfect inter- and intra-line
wear leveling spreads traffic evenly, and six ECPs protect each 64B
line.  The system fails when the first line wears out.

The estimate decomposes per scheme into

* the minimum cell endurance across the array under the scheme's
  voltages (Equation 2 on the scheme's latency map),
* the per-bank write cycle time (worst-case line write latency plus
  charge-pump and controller overheads),
* the effective cell-write fraction per line write (50% from
  Flip-N-Write, inflated by PR pairs or D-BL dummy RESETs),
* the wear-leveled line population per bank — or, for schemes that are
  incompatible with wear leveling (SCH/RBDL, Table II), only the hot
  fraction of it, which is why ``Hard+Sys`` fails within days.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import SystemConfig
from ..techniques.base import Scheme, SchemeLatencyModel
from ..units import to_days, to_years
from .ecp import ecp_lifetime_factor

__all__ = ["LifetimeReport", "LifetimeEstimator", "NO_WEAR_LEVELING_HOT_FRACTION"]

NO_WEAR_LEVELING_HOT_FRACTION = 1e-3
"""Fraction of a bank's lines that absorb the write traffic when wear
leveling is disabled: the residual write locality of the worst workload
after the in-package DRAM cache.  Without the DRAM cache the paper notes
a ReRAM main memory can fail within minutes [11]."""


@dataclass(frozen=True)
class LifetimeReport:
    """Lifetime decomposition for one scheme."""

    scheme: str
    min_endurance: float  # weakest cell's write endurance
    write_cycle_s: float  # per-bank back-to-back write period
    cell_write_fraction: float  # cells written per line write
    wear_leveled: bool
    lifetime_s: float

    @property
    def years(self) -> float:
        return to_years(self.lifetime_s)

    @property
    def days(self) -> float:
        return to_days(self.lifetime_s)


class LifetimeEstimator:
    """Fig. 5b's lifetime metric for arbitrary schemes.

    ``context`` (an engine :class:`~repro.engine.context.RunContext`)
    threads the run's solver backend and profile store into the latency
    tables; the tables themselves are memoised per scheme so
    :meth:`min_endurance` and :meth:`write_cycle` share one build.
    """

    def __init__(self, config: SystemConfig, context=None) -> None:
        self.config = config
        self.context = context
        # Keyed on the scheme's value: an id could be reused by a new
        # scheme once the old one is freed.
        self._latency_models: dict[Scheme, SchemeLatencyModel] = {}

    def _latency_model(self, scheme: Scheme) -> SchemeLatencyModel:
        model = self._latency_models.get(scheme)
        if model is None:
            model = SchemeLatencyModel(
                self.config, scheme, context=self.context
            )
            self._latency_models[scheme] = model
        return model

    # -- components -------------------------------------------------------------

    def min_endurance(self, scheme: Scheme) -> float:
        """Weakest cell endurance under the scheme's applied voltages.

        Evaluated on the 1-bit map: partitioning only ever slows cells
        down (raising their endurance), so the 1-bit map holds the
        fastest — most over-RESET — operating point of every cell.
        Both equations run on the largest v_eff alone: they are monotone,
        so that is the bytes of the endurance map's finite minimum.
        """
        latency_model = self._latency_model(scheme)
        ir = latency_model.ir_model
        v_matrix = scheme.regulator.matrix(ir)
        v_eff = ir.v_eff_map(v_matrix, n_bits=1, bias=scheme.bias)
        # A one-cell array, evaluated as the map's cells would be.
        endurance = ir.cell_model.endurance_at_voltage(v_eff.max(keepdims=True))
        if not np.isfinite(endurance).all():
            raise ValueError(f"scheme {scheme.name} cannot write any cell")
        return endurance.item()

    def write_cycle(self, scheme: Scheme) -> float:
        """Per-bank worst-case back-to-back write period (s)."""
        latency_model = self._latency_model(scheme)
        pump = self.config.pump
        charge = pump.t_charge * scheme.overheads.pump_charge_latency_factor
        return (
            latency_model.worst_case_write_latency()
            + charge
            + pump.t_discharge
            + self.config.lifetime.write_overhead
        )

    def cell_write_fraction(self, scheme: Scheme, samples: int = 64) -> float:
        """Cells written per line write under worst-case data patterns.

        Flip-N-Write bounds the data-required changes at 50%; PR pairs
        and D-BL dummies add more.  Measured by pushing random
        half-changed 8-bit patterns through the scheme's partitioner.
        """
        width = self.config.array.data_width
        base_fraction = self.config.lifetime.flip_n_write_fraction
        changes = max(1, int(round(width * base_fraction)))
        rng = np.random.default_rng(11)
        resets = np.zeros((samples, width), dtype=bool)
        sets = np.zeros((samples, width), dtype=bool)
        for reset_bits, set_bits in zip(resets, sets):
            changed = rng.choice(width, size=changes, replace=False)
            flip_to_zero = rng.random(changes) < 0.5
            reset_bits[changed[flip_to_zero]] = True
            set_bits[changed[~flip_to_zero]] = True
        plans = scheme.partitioner.plan_many(resets, sets)
        total_ops = int(plans.resets.sum() + plans.sets.sum())
        total_required = changes * int((resets | sets).any(axis=1).sum())
        if total_required == 0:
            return base_fraction
        inflation = total_ops / total_required
        return min(1.0, base_fraction * inflation)

    # -- the estimate -------------------------------------------------------------

    def estimate(self, scheme: Scheme) -> LifetimeReport:
        """Lifetime of the main memory under non-stop writes."""
        memory = self.config.memory
        endurance = self.min_endurance(scheme)
        cycle = self.write_cycle(scheme)
        fraction = self.cell_write_fraction(scheme)
        lines_per_bank = memory.lines // memory.total_banks
        wear_leveled = scheme.wear_leveling_compatible
        population = lines_per_bank * (
            1.0 if wear_leveled else NO_WEAR_LEVELING_HOT_FRACTION
        )
        ecp = ecp_lifetime_factor(
            line_bits=memory.line_bytes * 8,
            pointers=self.config.lifetime.ecp_per_line,
        )
        line_writes_to_death = endurance * ecp / fraction
        lifetime = line_writes_to_death * population * cycle
        return LifetimeReport(
            scheme=scheme.name,
            min_endurance=endurance,
            write_cycle_s=cycle,
            cell_write_fraction=fraction,
            wear_leveled=wear_leveled,
            lifetime_s=float(lifetime),
        )
