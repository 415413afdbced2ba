"""Partition RESET (PR) — Algorithm 1 of the paper.

PR inspects the Flip-N-Write RESET vector of each MAT's 8-bit write
slice.  If no RESET is required among the last five bits (column groups
3..7), the slice is left alone: the first three BL groups sit close to
the row decoder, suffer little WL drop, and reset fast.  Otherwise PR
walks the four 2-bit groups from the group containing the last required
RESET down to group 0, and inserts a benign RESET (immediately
compensated by a SET of the same cell in the following SET phase) into
every 2-bit group that has none — so the write resets roughly one bit
per 2-bit group, partitioning the array into ~4 equivalent circuits,
the sweet spot of Fig. 11a.

Because PR must know the final bit values before the RESET phase, it
runs the RESET phase first and the SET phase second (Fig. 10), unlike
the baseline SET-then-RESET order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import Partitioner, WritePlans

__all__ = ["PartitionResetPartitioner", "PR_TRIGGER_START", "PR_GROUP_SIZE"]

PR_TRIGGER_START = 3
"""First bit index of the trigger window: a RESET at or beyond this
column group activates PR for the slice (the paper's "last 5 bits")."""

PR_GROUP_SIZE = 2
"""Bits per partition group; PR guarantees one RESET per group."""


@dataclass(frozen=True)
class PartitionResetPartitioner(Partitioner):
    """Algorithm 1: decide how many and which cells to reset."""

    trigger_start: int = PR_TRIGGER_START
    group_size: int = PR_GROUP_SIZE

    def __post_init__(self) -> None:
        trigger_start, group_size = self.trigger_start, self.group_size
        if trigger_start < 0:
            raise ValueError(f"trigger_start must be >= 0, got {trigger_start}")
        if group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {group_size}")

    def _plan_many(self, resets: np.ndarray, sets: np.ndarray) -> WritePlans:
        n, width = resets.shape
        size = self.group_size
        groups = -(-width // size)
        group_ids = np.arange(groups)
        # Index of each slice's last required RESET (-1: none).
        last = np.where(
            resets.any(axis=1), width - 1 - np.argmax(resets[:, ::-1], axis=1), -1
        )
        padded = np.zeros((n, groups * size), dtype=bool)
        padded[:, :width] = resets
        # Algorithm 1 lines 4-8: once a RESET falls in the trigger
        # window, every group from the last RESET's down to group 0 that
        # has no RESET of its own gets a benign RESET on its last bit,
        # offset by a SET of the same cell in the SET phase.  A group's
        # decision reads only its own data bits.
        benign = (
            (last >= self.trigger_start)[:, None]
            & (group_ids <= last[:, None] // size)
            & ~padded.reshape(n, groups, size).any(axis=2)
        )
        columns = np.minimum(group_ids * size + size - 1, width - 1)
        final_resets = resets.copy()
        final_resets[:, columns] |= benign
        # A cell not being SET anyway makes its compensating SET an
        # extra operation too.
        extra_sets = benign & ~sets[:, columns]
        final_sets = sets.copy()
        final_sets[:, columns] |= benign
        return WritePlans(
            final_resets, final_sets, benign.sum(axis=1), extra_sets.sum(axis=1)
        )
