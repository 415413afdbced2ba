"""Per-write oracle of the RESET-latency table lookup.

The one-plan-at-a-time reads of a :class:`SchemeLatencyModel` table
that the block paths replaced: ``LineWriteModel`` tabulates every
(row, RESET-group mask) at once and ``worst_case_write_latency`` reads
the table once per plan count, and both must give what these give.
"""

from __future__ import annotations

from repro.techniques import SchemeLatencyModel, WritePlan


def reset_phase_latency(
    model: SchemeLatencyModel, row: int, reset_groups: tuple[int, ...]
) -> float:
    """Latency (s) of the RESET phase of one write on one MAT."""
    if not reset_groups:
        return 0.0
    n = len(reset_groups)
    return float(model.table[n - 1, row, list(reset_groups)].max())


def write_latency(model: SchemeLatencyModel, row: int, plan: WritePlan) -> float:
    """Full write latency: SET phase + RESET phase (either order)."""
    reset = reset_phase_latency(model, row, plan.reset_groups)
    set_phase = model.set_latency if plan.set_groups else 0.0
    return reset + set_phase
