"""Latency-aware scheduling (SCH [13, 14], Table II).

Different rows of a cross-point array have different RESET latencies
(Fig. 4c): rows near the write driver reset fast.  SCH remaps
write-intensive memory lines onto the fast rows.  The catch (§III-B):
inter-line wear leveling deliberately spreads hot lines over the whole
array, so SCH and wear leveling cannot coexist — enabling SCH forfeits
the >10-year lifetime guarantee (Fig. 5b, "Hard+Sys" fails in days).

In this model SCH is a scheme *flag* plus a hotness-to-row mapping the
memory system uses when translating line addresses to array rows: hot
lines land in the fastest (lowest) row sections.
"""

from __future__ import annotations

import numpy as np

from ..config import SystemConfig
from .base import Scheme

__all__ = ["make_sch", "scheduled_row", "scheduled_rows"]


def scheduled_rows(hotness_ranks, array_size: int) -> np.ndarray:
    """Map write-hotness ranks in [0, 1) to array rows (``int64``).

    Rank 0 (hottest) lands on row 0 (fastest, nearest the WD); rank ~1
    (coldest) on the top row.  With scheduling disabled, rows are
    assigned uniformly by the wear-leveled address instead.
    """
    ranks = np.asarray(hotness_ranks, dtype=np.float64)
    in_range = (ranks >= 0.0) & (ranks < 1.0)
    if not np.all(in_range):
        bad = ranks[~in_range][0]
        raise ValueError(f"hotness rank must be in [0, 1), got {bad}")
    return np.floor(ranks * array_size).astype(np.int64)


def scheduled_row(hotness_rank: float, array_size: int) -> int:
    """:func:`scheduled_rows` of one rank."""
    return int(scheduled_rows([hotness_rank], array_size)[0])


def make_sch(config: SystemConfig) -> Scheme:
    """Latency-aware write scheduling (incompatible with wear leveling)."""
    return Scheme(
        name="SCH",
        scheduling=True,
        wear_leveling_compatible=False,
        maintenance_write_rate=0.15,
        description="write-intensive lines remapped to fast rows",
    )
