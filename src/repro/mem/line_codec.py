"""Mapping a 64-byte line onto its 64 8-bit-wide MATs (§IV-B).

A memory line is striped across 64 cross-point MATs; each MAT stores
8 consecutive bits of the line through its 8 column-multiplexer groups
(bit ``k`` of a MAT slice lands in column group ``k``).  The RESET/SET
masks produced by Flip-N-Write are therefore reshaped to ``(64, 8)``;
each row is fed to the active scheme's partitioner, and the slowest
MAT's plan decides the line's RESET-phase latency.  The masks may also
arrive packed one byte per MAT, the form the simulator's front end
records.

``LineWriteResult`` aggregates everything the memory controller, energy
model, lifetime estimator and Figs. 9/14 need about one line write.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import SystemConfig
from ..techniques.base import Scheme, SchemeLatencyModel

__all__ = ["LineWriteResult", "LineWriteModel"]


@dataclass
class LineWriteResult:
    """Outcome of writing one 64B line under a scheme."""

    reset_bits: int  # data-required RESETs across the line
    set_bits: int  # data-required SETs
    extra_resets: int  # added by the partitioner (PR pairs, dummies)
    extra_sets: int
    latency: float  # line write latency (slowest MAT, s)
    reset_latency: float  # RESET-phase share of the latency (s)
    concurrent_resets: int  # line-wide concurrent RESETs (pump budget)
    concurrent_sets: int
    reset_energy: float = 0.0  # array-side RESET energy (J), pre-pump
    set_energy: float = 0.0

    @property
    def total_resets(self) -> int:
        return self.reset_bits + self.extra_resets

    @property
    def total_sets(self) -> int:
        return self.set_bits + self.extra_sets

    @property
    def total_writes(self) -> int:
        return self.total_resets + self.total_sets


class LineWriteModel:
    """Applies a scheme's partitioner and latency tables to line writes.

    A MAT's share of a write depends only on its (RESET, SET) key pair
    — at most 3^8 combinations — and on its row.  The partitioner runs
    once per key pair (memoised as a plan summary), and the RESET-phase
    latency and energy of every (row, RESET-group mask) are tabulated
    up front, so ``write`` is one memo lookup and two table reads per
    active MAT.  ``solver`` names the backend the tables are calibrated
    on (``None``: the default).
    """

    def __init__(
        self, config: SystemConfig, scheme: Scheme, solver: str | None = None
    ) -> None:
        self.config = config
        self.scheme = scheme
        self.solver = solver
        self.latency_model = SchemeLatencyModel(config, scheme, solver=solver)
        self.mats = config.memory.line_bytes  # 64 MATs per 64B line
        self.width = config.array.data_width
        self._bit_weights = 1 << np.arange(self.width)
        # reset_key << width | set_key -> (RESET-group mask, data RESETs,
        # data SETs, concurrent RESETs, concurrent SETs, extra RESETs,
        # extra SETs, SET-phase latency, SET energy).
        self._summaries: dict[int, tuple] = {}
        self._e_set_bit = config.cell.e_set_per_bit
        self._reset_phase, self._reset_energy = self._tabulate()

    def __reduce__(self):
        # Pickled (to pool workers) as its recipe: the tables rebuild
        # from the process's profile caches.
        return type(self), (self.config, self.scheme, self.solver)

    def _tabulate(self) -> tuple[np.ndarray, np.ndarray]:
        """(row, RESET-group mask) tables of RESET-phase latency and energy.

        The latency is the slowest group's (``reset_phase_latency``).
        The energy charges each bit Ion at its level for its own RESET
        duration (Equation 1 latency), summed by ``np.sum`` over each
        mask's own ``n``-long group vector — the reduction a one-off
        ``np.sum`` performs (zero padding to a common length would
        change it).
        """
        width = self.width
        table = self.latency_model.table  # (n - 1, row, group)
        rows = table.shape[1]
        # Per-(row, group) applied voltage: each group's last column.
        per_group = rows // width
        columns = np.arange(width) * per_group + per_group - 1
        voltages = self.scheme.regulator.matrix(self.latency_model.ir_model)[
            :, columns
        ]
        i_on = self.config.cell.i_on
        bits = (np.arange(1 << width)[:, None] >> np.arange(width)) & 1
        counts = bits.sum(axis=1)
        phase = np.zeros((rows, 1 << width))
        energy = np.zeros((rows, 1 << width))
        for n in range(1, width + 1):
            chosen = np.flatnonzero(counts == n)
            groups = np.nonzero(bits[chosen])[1].reshape(chosen.size, n)
            durations = table[n - 1][:, groups]
            products = voltages[:, groups] * i_on * durations
            phase[:, chosen] = durations.max(axis=2)
            # Row-major, so each n-long vector is one contiguous inner
            # reduction (a strided axis would be summed column by column).
            vectors = np.ascontiguousarray(products).reshape(-1, n)
            energy[:, chosen] = np.sum(vectors, axis=1).reshape(rows, chosen.size)
        return phase, energy

    def _summarise(self, reset_key: int, set_key: int) -> tuple:
        """Plan summary of one MAT's (RESET, SET) key pair."""
        plan = self.scheme.partitioner.plan(
            (reset_key & self._bit_weights) > 0, (set_key & self._bit_weights) > 0
        )
        groups = 0
        for group in plan.reset_groups:
            groups |= 1 << group
        return (
            groups,
            reset_key.bit_count(),
            set_key.bit_count(),
            len(plan.reset_groups),
            len(plan.set_groups),
            plan.extra_resets,
            plan.extra_sets,
            self.latency_model.set_latency if plan.set_groups else 0.0,
            len(plan.set_groups) * self._e_set_bit,
        )

    def _mat_keys(self, mask: np.ndarray) -> list[int]:
        """Per-MAT bit keys (bit ``k`` = column group ``k``) of a mask."""
        mask = np.asarray(mask)
        if mask.dtype == np.uint8 and mask.size == self.mats and self.width == 8:
            return mask.tolist()  # packed: one byte per MAT already
        bits = np.asarray(mask, dtype=bool).reshape(self.mats, self.width)
        return (bits @ self._bit_weights).tolist()

    def write(
        self, resets: np.ndarray, sets: np.ndarray, row: int
    ) -> LineWriteResult:
        """Plan and time a line write.

        ``resets`` / ``sets`` are the Flip-N-Write cell masks of the
        whole line — ``mats * width`` booleans, or the same bits packed
        little-endian into ``uint8`` bytes (``np.packbits(mask,
        bitorder="little")``, one byte per MAT) — and ``row`` is the MAT
        row the line occupies (all MATs of a line share the row).
        """
        summaries = self._summaries
        phases, energies = self._reset_phase, self._reset_energy
        shift = self.width
        reset_bits = set_bits = extra_resets = extra_sets = 0
        concurrent_resets = concurrent_sets = 0
        latency = reset_latency = reset_energy = set_energy = 0.0
        # Per-MAT energies add in ascending MAT order, one running sum.
        for reset_key, set_key in zip(self._mat_keys(resets), self._mat_keys(sets)):
            if not (reset_key or set_key):
                continue
            pair = reset_key << shift | set_key
            summary = summaries.get(pair)
            if summary is None:
                summary = summaries[pair] = self._summarise(reset_key, set_key)
            (groups, data_resets, data_sets, n_resets, n_sets,
             more_resets, more_sets, set_phase, e_set) = summary
            reset_phase = phases.item(row, groups)
            if reset_phase + set_phase > latency:
                latency = reset_phase + set_phase
            if reset_phase > reset_latency:
                reset_latency = reset_phase
            reset_bits += data_resets
            set_bits += data_sets
            extra_resets += more_resets
            extra_sets += more_sets
            concurrent_resets += n_resets
            concurrent_sets += n_sets
            reset_energy += energies.item(row, groups)
            set_energy += e_set
        return LineWriteResult(
            reset_bits=reset_bits,
            set_bits=set_bits,
            extra_resets=extra_resets,
            extra_sets=extra_sets,
            latency=latency,
            reset_latency=reset_latency,
            concurrent_resets=concurrent_resets,
            concurrent_sets=concurrent_sets,
            reset_energy=reset_energy,
            set_energy=set_energy,
        )
