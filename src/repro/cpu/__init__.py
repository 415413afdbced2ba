"""CMP substrate: set-associative caches, the per-core DRAM-L3
hierarchy, interval cores, and the trace-driven system simulator with
its scheme-independent front end."""

from .cache import AccessResult, SetAssociativeCache
from .core import CoreState
from .frontend import FrontEnd, recorded
from .hierarchy import CoreCacheHierarchy, HierarchyOutcome
from .system import SimulationResult, SystemSimulator

__all__ = [
    "AccessResult",
    "SetAssociativeCache",
    "CoreState",
    "FrontEnd",
    "recorded",
    "CoreCacheHierarchy",
    "HierarchyOutcome",
    "SimulationResult",
    "SystemSimulator",
]
