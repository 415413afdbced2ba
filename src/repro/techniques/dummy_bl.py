"""Dummy bit-lines (D-BL [4], Table II).

Each column multiplexer gains one redundant "dummy" BL.  During the
RESET phase of every write, any multiplexer whose data slice requires no
RESET resets its dummy BL instead — forcing a full-width multi-bit RESET
that partitions the array into eight equivalent circuits.  The cost:

* the charge pump must support the extra RESET current (2x in the worst
  case), adding +11% chip area and +27% chip leakage;
* on average 235% more RESETs than Flip-N-Write (Fig. 14), wearing out
  the dummy BLs, after which the scheme stops working;
* eight concurrent RESETs overshoot the Fig. 11a sweet spot — the
  coalesced WL current makes an eight-piece partition *worse* than a
  four-piece one, which is exactly the observation PR exploits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import SystemConfig
from .base import ChipOverheads, Partitioner, Scheme, WritePlans

__all__ = ["DummyBitlinePartitioner", "DBL_OVERHEADS", "make_dbl"]

DBL_OVERHEADS = ChipOverheads(
    area_factor=1.11,
    leakage_factor=1.27,
    pump_area_factor=2.0,
    pump_leakage_factor=2.0,
    write_current_factor=2.0,
)


@dataclass(frozen=True)
class DummyBitlinePartitioner(Partitioner):
    """Reset a dummy BL in every group that has no data RESET."""

    def _plan_many(self, resets: np.ndarray, sets: np.ndarray) -> WritePlans:
        # A slice with no RESET has no RESET phase, so no dummy activity
        # either.  Otherwise every group joins the RESET phase, the
        # dummies adding pure extra RESETs (no compensating SET -- dummy
        # BLs hold no data).
        active = resets.any(axis=1)
        extra = np.where(active, resets.shape[1] - resets.sum(axis=1), 0)
        return WritePlans(
            resets | active[:, None], sets.copy(), extra, np.zeros_like(extra)
        )


def make_dbl(config: SystemConfig) -> Scheme:
    """Dummy bit-lines."""
    return Scheme(
        name="D-BL",
        partitioner=DummyBitlinePartitioner(),
        overheads=DBL_OVERHEADS,
        description="dummy BL per column mux, forced full-width RESETs",
    )
