"""Interval core model (after Sniper's mechanistic cores [34]).

An out-of-order core sustains its base CPI while the reorder buffer
hides short latencies; long-latency events (DRAM-L3 hits, main-memory
reads) stall it for the exposed fraction of their latency.  Memory-level
parallelism (bounded by the per-core MSHRs) overlaps concurrent misses,
so a read's exposed stall is ``latency / effective_mlp``.

Stores retire through the write path without stalling unless the memory
controller back-pressures (write queue full), which the system
simulator models explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import CpuParams

__all__ = ["CoreState", "compute_seconds"]


def compute_seconds(instructions, params: CpuParams):
    """Seconds to retire ``instructions`` (an int or an int array) at the base CPI."""
    return instructions * params.base_cpi * params.cycle_s


@dataclass
class CoreState:
    """Timing accumulator of one core."""

    params: CpuParams
    core_id: int
    time_s: float = 0.0
    instructions: int = 0
    stall_s: float = 0.0
    effective_mlp: float = 4.0  # overlapped misses (<= MSHRs)

    def advance_compute(self, instructions: int) -> None:
        """Retire ``instructions`` at the base CPI."""
        if instructions < 0:
            raise ValueError(f"instructions must be >= 0, got {instructions}")
        self.instructions += instructions
        self.time_s += compute_seconds(instructions, self.params)

    def stall_cycles(self, cycles: float) -> None:
        """Expose a fixed-cycle stall (e.g. a DRAM-L3 hit)."""
        seconds = cycles * self.params.cycle_s
        self.time_s += seconds
        self.stall_s += seconds

    def stall_for_read(self, issue_time: float, completion_time: float) -> None:
        """Expose a main-memory read, discounted by MLP overlap."""
        latency = max(0.0, completion_time - issue_time)
        exposed = latency / max(1.0, self.effective_mlp)
        self.time_s = max(self.time_s, issue_time + exposed)
        self.stall_s += exposed

    def stall_until(self, time_s: float) -> None:
        """Hard stall (write-queue backpressure)."""
        if time_s > self.time_s:
            self.stall_s += time_s - self.time_s
            self.time_s = time_s

    @property
    def cycles(self) -> float:
        return self.time_s / self.params.cycle_s

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0
