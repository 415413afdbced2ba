"""Which public functions of which ``repro`` module form each traced layer.

Layer names follow the package layout (``workloads``, ``cpu``, ``mem``,
``techniques``, ``circuit``, ``xpoint``), so a regression in the compare
table names the module that slowed.  ``calls`` counts every invocation,
including nested ones (a batched solve that loops over single solves
counts both).
"""

from __future__ import annotations


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def program_layers() -> list[tuple[object, str, str]]:
    """``(owner, attribute, layer)`` for every traced entry point."""
    from repro.circuit import solvers
    from repro.cpu.hierarchy import CoreCacheHierarchy
    from repro.cpu.system import SystemSimulator
    from repro.mem.controller import MemoryController
    from repro.mem.lifetime import LifetimeEstimator
    from repro.mem.line_codec import LineWriteModel
    from repro.techniques import stacks
    from repro.techniques.base import Partitioner, SchemeLatencyModel
    from repro.workloads.datapatterns import WritePatternGenerator
    from repro.workloads.synthetic import SyntheticStream
    from repro.xpoint.vmap import ArrayIRModel

    targets = [
        (SyntheticStream, "next_access", "workloads.next_access"),
        (WritePatternGenerator, "masks", "workloads.masks"),
        (CoreCacheHierarchy, "access_l3", "cpu.access_l3"),
        (SystemSimulator, "__init__", "cpu.simulator_init"),
        (SystemSimulator, "run", "cpu.run"),
        (MemoryController, "submit_read", "mem.submit_read"),
        (MemoryController, "try_submit_write", "mem.try_submit_write"),
        (MemoryController, "drain", "mem.drain"),
        (LineWriteModel, "write", "mem.line_write"),
        (LifetimeEstimator, "estimate", "mem.lifetime"),
        (SchemeLatencyModel, "__init__", "techniques.latency_model"),
        (stacks, "standard_schemes", "techniques.schemes"),
    ]
    targets += [
        (cls, "plan", "techniques.plan")
        for cls in _subclasses(Partitioner)
        if "plan" in cls.__dict__
    ]
    backends = [solvers.SolverBackend, *_subclasses(solvers.SolverBackend)]
    targets += [
        (cls, method, "circuit.solve")
        for cls in backends
        for method in ("solve", "solve_many", "solve_ensemble")
        if method in cls.__dict__
    ]
    targets += [
        (ArrayIRModel, method, "xpoint.maps")
        for method in ("v_eff_map", "latency_map", "endurance_map")
    ]
    return targets


def profile_hit_ratio(counters: dict) -> float:
    """Profile lookups served without a solve, over all lookups."""
    hits = sum(
        counters.get(f"profile_cache.{kind}", 0)
        for kind in ("hit", "registry_hit", "shared_hit", "disk_hit")
    )
    lookups = counters.get("profile_cache.hit", 0) + counters.get(
        "profile_cache.miss", 0
    )
    return hits / lookups if lookups else 0.0
