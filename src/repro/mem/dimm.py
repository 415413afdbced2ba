"""NVDIMM-P geometry and address mapping (§II-C, Fig. 5a).

One channel hosts two ranks; a rank spreads eight 8-bit 4 GB ReRAM
chips, so each 64B line is striped across all chips of its rank and
across 64 MATs within them.  Logic banks interleave across the chips;
the bridge chip [31] translates line addresses and runs Flip-N-Write.

``AddressMapping`` turns a line-aligned physical address into the
(channel, rank, bank, array-row) coordinates the controller and the
IR-drop latency tables need.  Array rows are assigned through a mixing
hash: inter-line wear leveling randomises line placement anyway, so row
occupancy is uniform — except under SCH scheduling, which deliberately
maps hot lines to fast (low) rows via the hotness rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import MemoryParams
from ..techniques.sch import scheduled_rows

__all__ = ["LineLocation", "AddressMapping"]


@dataclass(frozen=True)
class LineLocation:
    """Physical placement of one memory line."""

    channel: int
    rank: int
    bank: int
    row: int  # MAT row (0..A-1), the DRVR section selector
    bank_index: int  # flat (channel, rank, bank) index, the controller's key


def _mix(values: np.ndarray) -> np.ndarray:
    """64-bit multiplicative hash (splitmix64 finaliser) of ``uint64`` values.

    ``uint64`` products wrap modulo 2**64, which is the finaliser's own
    arithmetic.
    """
    values = (values ^ (values >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    values = (values ^ (values >> 27)) * np.uint64(0x94D049BB133111EB)
    return values ^ (values >> 31)


class AddressMapping:
    """Line address to DIMM coordinates."""

    def __init__(
        self, memory: MemoryParams, array_rows: int, scheduling: bool = False
    ) -> None:
        self.memory = memory
        self.array_rows = array_rows
        self.scheduling = scheduling

    def locate_many(
        self, addresses, hotness: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Map byte addresses to ``(bank_index, row)`` ``int64`` arrays.

        ``bank_index`` is ``(channel * ranks + rank) * banks + bank``;
        ``hotness`` (popularity ranks in [0, 1), one per address) steers
        row placement when SCH scheduling is active (0 = hottest line,
        fastest row).
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        if np.any(addresses < 0):
            raise ValueError(
                f"address must be >= 0, got {int(addresses.min())}"
            )
        memory = self.memory
        line = addresses // memory.line_bytes
        channel = line % memory.channels
        line //= memory.channels
        bank = line % memory.banks_per_rank
        line //= memory.banks_per_rank
        rank = line % memory.ranks_per_channel
        line //= memory.ranks_per_channel
        bank_index = (
            channel * memory.ranks_per_channel + rank
        ) * memory.banks_per_rank + bank
        if self.scheduling and hotness is not None:
            row = scheduled_rows(hotness, self.array_rows)
        else:
            mixed = _mix(line.astype(np.uint64)) % np.uint64(self.array_rows)
            row = mixed.astype(np.int64)
        return bank_index, row

    def locate(
        self, address: int, hotness_rank: float | None = None
    ) -> LineLocation:
        """Map a byte address to its line's physical coordinates.

        ``hotness_rank`` in [0, 1) steers row placement when SCH
        scheduling is active (0 = hottest line, fastest row).
        """
        hotness = None if hotness_rank is None else [hotness_rank]
        bank_index, row = self.locate_many([address], hotness)
        index = int(bank_index[0])
        memory = self.memory
        rank_index, bank = divmod(index, memory.banks_per_rank)
        channel, rank = divmod(rank_index, memory.ranks_per_channel)
        return LineLocation(
            channel=channel, rank=rank, bank=bank, row=int(row[0]), bank_index=index
        )

    @property
    def total_banks(self) -> int:
        return self.memory.total_banks
