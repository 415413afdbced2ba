"""Main-memory substrate: line-to-MAT mapping, the NVDIMM-P geometry,
the read-priority controller with write bursts and the charge-pump
budget, wear leveling, ECP, and the lifetime / energy models.  Write
masks arrive post-Flip-N-Write from
:mod:`repro.workloads.datapatterns`."""

from .controller import ControllerStats, MemoryController
from .dimm import AddressMapping, LineLocation
from .ecp import EcpLine, ecp_lifetime_factor
from .energy import EnergyModel, EnergyReport
from .lifetime import LifetimeEstimator, LifetimeReport
from .line_codec import LineWriteModel, LineWriteResult, write_model
from .timing import MemoryTiming
from .wear_leveling import InterLineWearLeveling
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
    "LifetimeEstimator",
    "LifetimeReport",
    "LineWriteModel",
    "LineWriteResult",
    "MemoryTiming",
    "InterLineWearLeveling",
    "WearSimParams",
    "WearSimResult",
    "WearSimulator",
    "write_model",
]
