"""Configuration dataclasses for the ReRAM system model.

The defaults reproduce Table I (cell / CP array / bank model) and
Table III (baseline system configuration) of the paper.  Every parameter
is stored in SI units; constructors accept the paper's units through the
helpers in :mod:`repro.units`.

All configuration objects are frozen: experiments derive variants with
:func:`dataclasses.replace`, which keeps parameter sweeps explicit and
hashable (maps of IR-drop results are cached per configuration).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Mapping

from .units import mA, nJ, ns, pJ, uA

__all__ = [
    "CellParams",
    "SelectorParams",
    "ArrayParams",
    "PumpParams",
    "MemoryParams",
    "CpuParams",
    "LifetimeParams",
    "SystemConfig",
    "default_config",
    "config_hash",
]


@dataclass(frozen=True)
class SelectorParams:
    """Bipolar access device (MASiM-like) model parameters.

    The selector passes the full cell current when fully selected and
    attenuates current by the nonlinear selectivity ``kr`` at half-select
    voltage (Table I: ``Kr = 1000``).  ``leak_sat_ratio`` caps the
    subthreshold leakage a few times above the nominal half-select
    current, modelling the saturation past the exponential knee typical
    of MASiM/MIEC devices (Fig. 1c).
    """

    kr: float = 1000.0
    leak_sat_ratio: float = 1.0  # leakage cap over the nominal half-select leak

    def __post_init__(self) -> None:
        if self.kr <= 1.0:
            raise ValueError(f"selector kr must exceed 1, got {self.kr}")
        if self.leak_sat_ratio <= 0.0:
            raise ValueError(
                f"leak_sat_ratio must be positive, got {self.leak_sat_ratio}"
            )


@dataclass(frozen=True)
class CellParams:
    """ReRAM cell electrical and reliability model (Table I + §II-B).

    Equation 1 of the paper gives the RESET latency
    ``Trst = beta * exp(-k * Veff)``; Equation 2 gives the endurance
    ``E = (Trst / T0) ** C``.  The fitting constants are derived from the
    anchors the paper publishes rather than stored directly:

    * no voltage drop: ``Trst = 15 ns`` at ``Veff = 3 V``,
      endurance ``5e6`` writes;
    * worst corner of a 512x512 array: ``Veff = 1.7 V`` -> ``2.3 us``.
    """

    i_on: float = uA(90.0)  # LRS cell current during RESET
    r_lrs: float = 3.0 / uA(90.0)  # LRS resistance at full RESET bias
    hrs_ratio: float = 100.0  # R_HRS / R_LRS
    v_reset: float = 3.0  # full-select RESET voltage (applied on BL)
    v_set: float = 3.0
    v_read: float = 1.8
    v_write_fail: float = 1.7  # below this effective voltage a write fails [26]
    t_reset_nominal: float = ns(15.0)  # RESET latency with no voltage drop [9]
    v_nominal: float = 3.0  # effective voltage at which t_reset_nominal holds
    t_reset_worst: float = ns(2300.0)  # array RESET latency at v_eff_worst
    v_eff_worst: float = 1.7  # worst-corner effective Vrst in the baseline array
    endurance_nominal: float = 5e6  # writes tolerated with no voltage drop [3]
    endurance_exponent: float = 3.0  # C in Equation 2 [3]
    i_set: float = uA(98.6)
    e_set_per_bit: float = pJ(29.8)

    def __post_init__(self) -> None:
        if self.v_eff_worst >= self.v_nominal:
            raise ValueError("worst-case effective voltage must be below nominal")
        if self.t_reset_worst <= self.t_reset_nominal:
            raise ValueError("worst-case RESET latency must exceed nominal latency")
        for name in ("i_on", "v_reset", "t_reset_nominal", "endurance_nominal"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class ArrayParams:
    """Cross-point MAT geometry and wiring (Table I)."""

    size: int = 512  # A: the MAT is size x size cells
    data_width: int = 8  # bits read/written per MAT (8 SAs/WDs)
    r_wire: float = 11.5  # wire resistance between adjacent cells (20 nm)
    tech_node_nm: float = 20.0
    selector: SelectorParams = field(default_factory=SelectorParams)
    drvr_sections: int = 8  # BL sections addressed by the row-address MSBs
    udrvr_levels: int = 8  # Vrst levels across the WL (one per column mux)
    # Calibration constant: per-cell half-select sneak current relative
    # to the nominal Ion/Kr.  At 0.95 the model reproduces the paper's
    # published worst-corner drop (1.7 V effective at 3 V applied, 2.3 us
    # array RESET) and left-most-BL drop (0.66 V) simultaneously, with no
    # cell pushed below the 1.7 V write-failure floor; see
    # tests/circuit/test_calibration.py.
    sneak_boost: float = 0.95
    # Paper Fig. 8 lumped word-line model: fraction of the word-line that
    # acts as the shared trunk carrying the coalesced current of all
    # concurrent RESETs.  A/16 places the multi-bit sweet spot at N = 4
    # concurrent RESETs, matching Fig. 11a.
    wl_trunk_fraction: float = 1.0 / 16.0

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ValueError(f"array size must be >= 2, got {self.size}")
        if self.data_width < 1 or self.size % self.data_width:
            raise ValueError("data_width must divide the array size")
        if self.r_wire <= 0:
            raise ValueError("wire resistance must be positive")
        if self.drvr_sections < 1 or self.size % self.drvr_sections:
            raise ValueError("drvr_sections must divide the array size")
        if self.udrvr_levels < 1:
            raise ValueError("udrvr_levels must be >= 1")

    @property
    def cells_per_mux(self) -> int:
        """BLs multiplexed onto one write driver (64:1 for 512/8)."""
        return self.size // self.data_width

    @property
    def section_rows(self) -> int:
        """Rows per DRVR section (64 for 512/8)."""
        return self.size // self.drvr_sections


@dataclass(frozen=True)
class PumpParams:
    """On-chip charge pump model (§II-C, Table III, [29])."""

    vdd: float = 1.8
    v_out: float = 3.0  # baseline output voltage
    v_out_udrvr: float = 3.66  # with the extra UDRVR stage (§IV-C)
    i_reset_budget: float = mA(23.0)  # total current at v_out for RESETs
    i_set_budget: float = mA(25.0)
    max_concurrent_writes: int = 256  # RESETs/SETs per phase for a 64B line
    efficiency: float = 0.33
    t_charge: float = ns(28.0)
    t_discharge: float = ns(21.0)
    e_charge: float = nJ(17.8)
    e_discharge: float = nJ(13.1)
    leakage_w: float = 62.2e-3
    area_mm2: float = 19.3  # 11% of a 4GB 20nm chip
    frequency_hz: float = 133e6

    def __post_init__(self) -> None:
        if not 0 < self.efficiency <= 1:
            raise ValueError("pump efficiency must be in (0, 1]")
        if self.v_out < self.vdd:
            raise ValueError("pump output voltage must be at least Vdd")


@dataclass(frozen=True)
class MemoryParams:
    """Main memory geometry and timing (Table III)."""

    capacity_bytes: int = 64 << 30  # 64 GB
    channels: int = 1
    ranks_per_channel: int = 2
    banks_per_rank: int = 8
    chips_per_rank: int = 8
    chip_capacity_bytes: int = 4 << 30
    line_bytes: int = 64
    bus_mhz: float = 1066.0
    read_queue_entries: int = 24
    write_queue_entries: int = 24
    mc_to_bank_cycles: int = 64  # CPU cycles
    t_rcd: float = ns(18.0)
    t_cl: float = ns(10.0)
    t_faw: float = ns(30.0)
    t_cwd: float = ns(13.0)
    t_wtr: float = ns(7.5)
    e_read_line: float = nJ(5.6)
    chip_area_mm2: float = 175.0  # 4GB 20nm chip (pump = 11% = 19.3mm2)
    chip_leakage_w: float = 0.55  # array peripheral leakage per chip, baseline

    def __post_init__(self) -> None:
        if self.line_bytes <= 0 or self.line_bytes & (self.line_bytes - 1):
            raise ValueError("line size must be a positive power of two")
        total = (
            self.channels
            * self.ranks_per_channel
            * self.chips_per_rank
            * self.chip_capacity_bytes
        )
        if total != self.capacity_bytes:
            raise ValueError(
                f"capacity {self.capacity_bytes} does not match geometry total {total}"
            )

    @property
    def total_banks(self) -> int:
        """Logic banks across the whole memory (interleaved over chips)."""
        return self.channels * self.ranks_per_channel * self.banks_per_rank

    @property
    def lines(self) -> int:
        return self.capacity_bytes // self.line_bytes

    @property
    def arrays_per_line(self) -> int:
        """A 64B line is striped over 64 8-bit-wide MATs (§IV-B)."""
        return self.line_bytes


@dataclass(frozen=True)
class CpuParams:
    """CMP model parameters (Table III)."""

    cores: int = 8
    freq_ghz: float = 3.2
    issue_width: int = 4
    mshrs_per_core: int = 8
    rob_entries: int = 128
    base_cpi: float = 0.5  # 4-wide OoO sustained CPI on cache hits
    l1_bytes: int = 32 << 10
    l1_ways: int = 4
    l1_hit_cycles: int = 1
    l2_bytes: int = 2 << 20
    l2_ways: int = 8
    l2_hit_cycles: int = 5
    l3_bytes_per_core: int = 32 << 20  # in-package DRAM cache
    l3_ways: int = 16
    l3_hit_cycles: int = 96
    line_bytes: int = 64

    @property
    def cycle_s(self) -> float:
        return 1e-9 / self.freq_ghz


@dataclass(frozen=True)
class LifetimeParams:
    """Lifetime-estimation assumptions (§III-A / Fig. 5b)."""

    flip_n_write_fraction: float = 0.5  # cells changed per worst-case write
    ecp_per_line: int = 6  # error-correcting pointers per 64B line [33]
    wear_leveling_perfect: bool = True
    set_phase_fraction: float = 0.35  # SET phase share of a write cycle
    write_overhead: float = ns(30.0)  # decode + pump handshake per write


@dataclass(frozen=True)
class SystemConfig:
    """Bundle of every parameter set; the unit handed to experiments."""

    cell: CellParams = field(default_factory=CellParams)
    array: ArrayParams = field(default_factory=ArrayParams)
    pump: PumpParams = field(default_factory=PumpParams)
    memory: MemoryParams = field(default_factory=MemoryParams)
    cpu: CpuParams = field(default_factory=CpuParams)
    lifetime: LifetimeParams = field(default_factory=LifetimeParams)

    def with_array(self, **changes) -> "SystemConfig":
        """Derive a config with array parameters replaced."""
        return replace(self, array=replace(self.array, **changes))

    def with_cell(self, **changes) -> "SystemConfig":
        return replace(self, cell=replace(self.cell, **changes))

    def with_pump(self, **changes) -> "SystemConfig":
        return replace(self, pump=replace(self.pump, **changes))

    def with_memory(self, **changes) -> "SystemConfig":
        return replace(self, memory=replace(self.memory, **changes))

    def with_cpu(self, **changes) -> "SystemConfig":
        return replace(self, cpu=replace(self.cpu, **changes))


def default_config(**array_changes: Mapping) -> SystemConfig:
    """The paper's baseline configuration (Tables I and III)."""
    config = SystemConfig()
    if array_changes:
        config = config.with_array(**array_changes)
    return config


def config_hash(config: SystemConfig) -> str:
    """Stable content hash of a configuration (or any params dataclass).

    The hash is a SHA-256 digest of the canonical JSON rendering of the
    dataclass fields (sorted keys, recursive), truncated to 16 hex
    characters.  Two structurally equal configurations hash equal across
    processes and interpreter runs, which makes the hash usable as a
    cache key for IR-drop models and on-disk experiment results — unlike
    ``hash()``, which Python salts per process.

    A frozen instance keeps its digest (outside its fields, so equality,
    ``asdict`` and the digest itself are unchanged): every later call on
    it is a dictionary lookup.
    """
    if not dataclasses.is_dataclass(config) or isinstance(config, type):
        raise TypeError(f"expected a params dataclass instance, got {config!r}")
    memo = getattr(config, "__dict__", None)  # None: a slots dataclass
    if memo is not None and "_config_hash" in memo:
        return memo["_config_hash"]
    doc = json.dumps(
        dataclasses.asdict(config), sort_keys=True, separators=(",", ":"),
        default=str,
    )
    digest = hashlib.sha256(doc.encode()).hexdigest()[:16]
    if memo is not None and type(config).__dataclass_params__.frozen:
        object.__setattr__(config, "_config_hash", digest)
    return digest
