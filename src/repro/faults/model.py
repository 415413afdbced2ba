"""Declarative device-level fault model for cross-point arrays.

Real ReRAM arrays are not the perfect devices the baseline maps assume:
cells die stuck in one state, the charge pump's output droops under
load, wire resistance varies line to line with process, and the LRS
filament differs cell to cell (Li et al., *Device and Circuit
Interaction Analysis of Stochastic Behaviors in Cross-Point RRAM
Arrays*).  :class:`FaultModel` captures those imperfections as a frozen,
picklable dataclass so a fault scenario can be threaded through a
:class:`~repro.engine.context.RunContext`, keyed into caches, and
fanned out to executor workers.

All sampling is deterministic: masks and spread factors derive from
``seed`` alone (mixed per purpose), so two model instances built from
equal fault models agree bit for bit — across processes, which is what
lets a fault sweep run under the parallel executor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = ["FaultModel"]

_SEED_MIX = 0x9E3779B1  # odd golden-ratio constant (cf. RunContext.seed_for)


def _mix(seed: int, token: "str | int") -> int:
    """Stable seed mixing (no process-salted ``hash()``)."""
    if isinstance(token, str):
        token = sum(ord(c) * 31**i for i, c in enumerate(token))
    return ((seed & 0x7FFFFFFF) ^ (int(token) & 0x7FFFFFFF)) * _SEED_MIX % (1 << 31)


@dataclass(frozen=True)
class FaultModel:
    """One array's device imperfections.

    Attributes
    ----------
    sa0_rate:
        Fraction of cells stuck at HRS ("stuck-at-0"): they cannot be
        SET, so a RESET is a no-op and the cell stores nothing.
    sa1_rate:
        Fraction of cells stuck at LRS ("stuck-at-1"): the filament
        never ruptures, a RESET never completes, and the cell leaks
        like a fully-selected one even at half-select.
    vrst_droop:
        Fractional droop of the write-driver output voltage (charge
        pump sag under load): every applied RESET level is scaled by
        ``1 - vrst_droop``.
    r_wire_sigma:
        Lognormal sigma of per-line wire-resistance variation.  Each
        word line and each bit line draws one factor, scaling its IR
        drop (reduced model) or its segment resistors (exact model).
    ron_sigma:
        Lognormal sigma of per-cell LRS spread: scales each cell's
        RESET latency (a weaker filament switches slower), and through
        it the endurance map.
    droop_sigma:
        Lognormal sigma of array-to-array droop variation.  A Monte
        Carlo instance samples its own pump sag around ``vrst_droop``
        (see :meth:`sampled_droop`); the analytic single-array maps
        keep using the nominal ``vrst_droop`` unchanged.
    seed:
        Base seed for every sampled mask/factor.
    """

    sa0_rate: float = 0.0
    sa1_rate: float = 0.0
    vrst_droop: float = 0.0
    r_wire_sigma: float = 0.0
    ron_sigma: float = 0.0
    droop_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("sa0_rate", "sa1_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {rate}")
        if self.sa0_rate + self.sa1_rate >= 1.0:
            raise ValueError("sa0_rate + sa1_rate must leave some cells alive")
        if not 0.0 <= self.vrst_droop < 1.0:
            raise ValueError(
                f"vrst_droop must be in [0, 1), got {self.vrst_droop}"
            )
        for name in ("r_wire_sigma", "ron_sigma", "droop_sigma"):
            sigma = getattr(self, name)
            if sigma < 0.0:
                raise ValueError(f"{name} must be >= 0, got {sigma}")

    # -- composition -------------------------------------------------------------

    @property
    def is_null(self) -> bool:
        """True when every imperfection is zero (a perfect array)."""
        return (
            self.sa0_rate == 0.0
            and self.sa1_rate == 0.0
            and self.vrst_droop == 0.0
            and self.r_wire_sigma == 0.0
            and self.ron_sigma == 0.0
            and self.droop_sigma == 0.0
        )

    @classmethod
    def at_rate(cls, rate: float, seed: int = 0) -> "FaultModel":
        """A composite stress profile scaled by one scalar fault rate.

        ``rate`` is the total stuck-cell fraction (split evenly between
        SA0 and SA1); supply droop and device spread grow with it, the
        way wear-out and process corners correlate in practice.  The
        fault-sweep experiment steps this scalar.
        """
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"rate must be in [0, 1), got {rate}")
        return cls(
            sa0_rate=rate / 2.0,
            sa1_rate=rate / 2.0,
            vrst_droop=min(0.3, 2.0 * rate),
            r_wire_sigma=min(0.5, 5.0 * rate),
            ron_sigma=min(0.5, 5.0 * rate),
            droop_sigma=min(0.1, 1.0 * rate),
            seed=seed,
        )

    def with_seed(self, seed: int) -> "FaultModel":
        return replace(self, seed=seed)

    # -- Monte Carlo instance derivation -----------------------------------------

    def instance_seed(self, instance: int) -> int:
        """The derived seed of Monte Carlo instance ``instance``.

        Mixes the instance index through the same chained-token scheme
        as :meth:`~repro.engine.context.RunContext.seed_for` (an
        ``"mc-instance"`` namespace token, then the index) rather than
        ``seed + instance``: additive offsets would make instance ``i``
        of seed ``s`` collide with instance ``0`` of seed ``s + i``,
        entangling ensembles with the fault-sweep seed ladder.
        """
        if instance < 0:
            raise ValueError(f"instance must be >= 0, got {instance}")
        return _mix(_mix(self.seed, "mc-instance"), instance)

    def for_instance(self, instance: int) -> "FaultModel":
        """This fault scenario reseeded for one Monte Carlo instance."""
        return replace(self, seed=self.instance_seed(instance))

    # -- deterministic sampling --------------------------------------------------

    def rng(self, token: "str | int") -> np.random.Generator:
        """A fresh generator for one sampling purpose."""
        return np.random.default_rng(_mix(self.seed, token))

    def stuck_masks(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        """Disjoint boolean (size, size) masks: (stuck-at-0, stuck-at-1)."""
        draw = self.rng("stuck").random((size, size))
        sa0 = draw < self.sa0_rate
        sa1 = (draw >= self.sa0_rate) & (draw < self.sa0_rate + self.sa1_rate)
        return sa0, sa1

    def line_factors(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-line lognormal wire factors: (word lines, bit lines).

        Median 1; a factor scales the whole line's resistance, hence
        its contribution to the IR drop.
        """
        if self.r_wire_sigma == 0.0:
            ones = np.ones(size)
            return ones, ones.copy()
        rng = self.rng("wire")
        wl = np.exp(self.r_wire_sigma * rng.standard_normal(size))
        bl = np.exp(self.r_wire_sigma * rng.standard_normal(size))
        return wl, bl

    def cell_latency_factors(self, size: int) -> np.ndarray:
        """Per-cell lognormal RESET-latency spread, shape (size, size)."""
        if self.ron_sigma == 0.0:
            return np.ones((size, size))
        return np.exp(
            self.ron_sigma * self.rng("ron").standard_normal((size, size))
        )

    def sampled_droop(self) -> float:
        """One array instance's pump droop, sampled around ``vrst_droop``.

        With ``droop_sigma == 0`` this returns ``vrst_droop`` exactly —
        no generator is consumed, so a zero-sigma instance is
        bit-identical to the analytic single-array path.  Otherwise the
        *retained* fraction ``1 - vrst_droop`` picks up a lognormal
        factor (median 1), clamped so the instance never boosts above
        the nominal supply and never collapses it entirely.
        """
        if self.droop_sigma == 0.0:
            return self.vrst_droop
        z = float(self.rng("droop").standard_normal())
        retained = (1.0 - self.vrst_droop) * float(np.exp(self.droop_sigma * z))
        return float(min(0.99, max(0.0, 1.0 - retained)))

    def applied_voltage(
        self, v: "float | np.ndarray"
    ) -> "float | np.ndarray":
        """An applied RESET voltage after charge-pump droop."""
        return v * (1.0 - self.vrst_droop)

    # -- ensemble sampling ------------------------------------------------------
    #
    # The Monte Carlo engine needs every instance's droop up front (to
    # batch the profile solves); each entry is bit-identical to the
    # single-instance draw (``for_instance(i).sampled_droop()``), which
    # keeps K=1 ensembles in exact parity with the analytic path.  It
    # draws stuck masks and wire / cell factors one instance at a time,
    # through ``for_instance(i)``.

    def ensemble_droops(self, samples: int) -> np.ndarray:
        """Per-instance pump droop, shape (samples,)."""
        return np.array(
            [self.for_instance(i).sampled_droop() for i in range(samples)]
        )
