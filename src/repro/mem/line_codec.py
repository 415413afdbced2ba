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

A model depends only on (config, scheme, solver) and is read-only once
built, so the simulator takes it from one bounded process registry,
:func:`write_model`: every runner, figure and pool task of a process
shares each scheme's tables.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..config import SystemConfig
from ..techniques.base import Scheme, SchemeLatencyModel
from ..xpoint.vmap import profile_registry

__all__ = ["LineWriteResult", "LineWriteModel", "write_model"]


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
    — one of 3^8 disjoint pairs — and on its row.  At construction the
    partitioner plans every pair in one ``plan_many`` call, and the
    RESET-phase latency and energy of every (row, RESET-group mask) are
    tabulated, so ``write_many`` is a handful of table gathers over a
    whole batch of lines.  ``solver`` names the backend the tables are
    calibrated on (``None``: the default).
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
        self._e_set_bit = config.cell.e_set_per_bit
        self._reset_phase, self._reset_energy = self._tabulate()
        self._plans = self._plan_pairs()

    def _tabulate(self) -> tuple[np.ndarray, np.ndarray]:
        """(row, RESET-group mask) tables of RESET-phase latency and energy.

        The latency is the slowest group's entry of the scheme's table.
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

    def _plan_pairs(self) -> np.ndarray:
        """Plan summary of every MAT key pair, one row per
        ``reset_key << width | set_key``.

        The columns are the final RESET-group mask, then data RESETs,
        data SETs, extra RESETs, extra SETs, concurrent RESETs and
        concurrent SETs.  Only the 3^width disjoint pairs are planned;
        the rows of overlapping pairs stay zero and ``write_many``
        rejects them.
        """
        width = self.width
        # Each bit of a disjoint pair is untouched (0), RESET (1) or SET (2).
        digits = np.arange(3**width)[:, None] // 3 ** np.arange(width) % 3
        resets, sets = digits == 1, digits == 2
        plans = self.scheme.partitioner.plan_many(resets, sets)
        weights = self._bit_weights
        table = np.zeros(
            (1 << 2 * width, 7), dtype=np.min_scalar_type((1 << width) - 1)
        )
        table[(resets @ weights) << width | (sets @ weights)] = np.stack(
            [
                plans.resets @ weights,
                resets.sum(axis=1),
                sets.sum(axis=1),
                plans.extra_resets,
                plans.extra_sets,
                plans.resets.sum(axis=1),
                plans.sets.sum(axis=1),
            ],
            axis=1,
        )
        return table

    def write_many(
        self, resets: np.ndarray, sets: np.ndarray, rows
    ) -> list[LineWriteResult]:
        """Plan and time a batch of line writes, one result per line.

        ``resets`` / ``sets`` hold one line's Flip-N-Write cell masks
        per row — ``mats * width`` booleans, or the same bits packed
        little-endian into ``uint8`` bytes (``np.packbits(mask,
        bitorder="little")``, one byte per MAT) — and ``rows`` the MAT
        row each line occupies (all MATs of a line share the row).
        """
        rows = np.asarray(rows, dtype=np.intp)
        lines, mats, width = rows.size, self.mats, self.width
        keys = []
        for mask in (resets, sets):
            mask = np.asarray(mask)
            if mask.dtype == np.uint8 and mask.shape[-1] == mats and width == 8:
                keys.append(mask.reshape(-1))  # packed: a byte per MAT
            else:
                bits = np.reshape(mask, (lines * mats, width)).astype(bool)
                keys.append(bits @ self._bit_weights)
        reset_keys, set_keys = keys
        if (reset_keys & set_keys).any():
            raise ValueError("a bit cannot be both RESET and SET in one write")
        # Only active MATs are read, line by line in ascending MAT order;
        # an idle MAT adds nothing to any field.
        active = np.flatnonzero(reset_keys | set_keys)
        line = active // mats
        plans = self._plans[
            reset_keys[active].astype(np.intp) << width | set_keys[active]
        ]
        at = rows[line], plans[:, 0]
        reset_phase = self._reset_phase[at]
        n_sets = plans[:, 6]
        set_phase = np.where(n_sets > 0, self.latency_model.set_latency, 0.0)
        latency = np.zeros(lines)
        np.maximum.at(latency, line, reset_phase + set_phase)
        reset_latency = np.zeros(lines)
        np.maximum.at(reset_latency, line, reset_phase)
        # bincount adds each line's energies in input order, one running
        # sum from 0.0 — the per-MAT fold's rounding (np.sum would pair
        # them up instead).
        reset_energy = np.bincount(line, self._reset_energy[at], minlength=lines)
        set_energy = np.bincount(line, n_sets * self._e_set_bit, minlength=lines)
        totals = [
            np.bincount(line, plans[:, field], minlength=lines)
            .astype(np.int64)
            .tolist()
            for field in range(1, 7)
        ]
        fields = zip(  # in LineWriteResult field order
            *totals[:4], latency.tolist(), reset_latency.tolist(), *totals[4:],
            reset_energy.tolist(), set_energy.tolist(),
        )
        return [LineWriteResult(*values) for values in fields]

    def write(
        self, resets: np.ndarray, sets: np.ndarray, row: int
    ) -> LineWriteResult:
        """One line's ``write_many``: flat masks, one row."""
        return self.write_many(
            np.reshape(resets, (1, -1)), np.reshape(sets, (1, -1)), [row]
        )[0]


#: Most models held at once: one configuration's full scheme registry
#: (11 schemes) fits.  A model holds ~2.8 MB of tables.
_MODELS_BOUND = 16
_models: OrderedDict[tuple, LineWriteModel] = OrderedDict()
_models_lock = threading.Lock()


def write_model(
    config: SystemConfig, scheme: Scheme, solver: str | None = None
) -> LineWriteModel:
    """The process's shared :class:`LineWriteModel` for (config, scheme,
    solver), built on a miss (``solver`` ``None``: the default).

    Least recently used models are dropped past :data:`_MODELS_BOUND`,
    and ``profile_registry.clear()`` drops them all.  The build runs
    outside the lock; concurrent builders of one key are redundant but
    consistent, and the first insert wins.
    """
    # Imported here: the solver backends load SciPy's linear algebra,
    # which importing the package does not otherwise pay for.
    from ..circuit.solvers import solver_name

    solver = solver_name(solver)
    key = (config, scheme, solver)
    with _models_lock:
        model = _models.get(key)
        if model is not None:
            _models.move_to_end(key)
    if model is not None:
        obs.count("write_model.hit")
        return model
    obs.count("write_model.miss")
    with obs.span("mem.write_model", scheme=scheme.name):
        built = LineWriteModel(config, scheme, solver)
    with _models_lock:
        model = _models.setdefault(key, built)
        _models.move_to_end(key)
        while len(_models) > _MODELS_BOUND:
            _models.popitem(last=False)
    return model


def _clear_models() -> None:
    with _models_lock:
        _models.clear()


profile_registry.derive(_clear_models)
