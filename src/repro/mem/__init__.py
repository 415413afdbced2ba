"""Main-memory substrate: Flip-N-Write, line-to-MAT mapping, the
NVDIMM-P geometry, the read-priority controller with write bursts,
wear leveling, ECP, and the lifetime / energy models."""

from .controller import ControllerStats, MemoryController
from .dimm import AddressMapping, LineLocation
from .ecp import EcpLine, ecp_lifetime_factor
from .energy import EnergyModel, EnergyReport
from .flip_n_write import FlipNWrite, FnwImage
from .lifetime import LifetimeEstimator, LifetimeReport
from .line_codec import LineWriteModel, LineWriteResult, write_model
from .timing import MemoryTiming
from .wear_leveling import InterLineWearLeveling, IntraLineWearLeveling
from .wear_sim import WearSimParams, WearSimResult, WearSimulator

__all__ = [
    "ControllerStats",
    "MemoryController",
    "AddressMapping",
    "LineLocation",
    "EcpLine",
    "ecp_lifetime_factor",
    "EnergyModel",
    "EnergyReport",
    "FlipNWrite",
    "FnwImage",
    "LifetimeEstimator",
    "LifetimeReport",
    "LineWriteModel",
    "LineWriteResult",
    "MemoryTiming",
    "InterLineWearLeveling",
    "IntraLineWearLeveling",
    "WearSimParams",
    "WearSimResult",
    "WearSimulator",
    "write_model",
]
