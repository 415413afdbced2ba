"""The metric names the benchmark reports, with units.

``BENCHMARK.json`` declares the same lists; ``test_perfbench.py`` checks
that the two agree.  Every workload prints every metric of its mode:
a per-layer metric whose layer a workload does not exercise reads 0.
"""

from __future__ import annotations

#: name -> (unit, better).  What an "operation" and a "pass" are differs
#: per workload; see README.md.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "run_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
}

_SPANNED = (
    "workloads.next_access",
    "workloads.masks",
    "cpu.access_l3",
    "mem.submit_read",
    "mem.try_submit_write",
    "mem.drain",
    "mem.line_write",
    "techniques.plan",
    "xpoint.maps",
)

#: The figures of the ``array-cold`` workload, in canonical order.
ARRAY_FIGURES = ("fig04", "fig07b", "fig11", "fig13", "fig05b")

PER_LAYER: dict[str, str] = {}
for _layer in _SPANNED:
    PER_LAYER[f"{_layer}.calls"] = "count"
    PER_LAYER[f"{_layer}.self_s"] = "s"
PER_LAYER.update(
    {
        "cpu.run.self_s": "s",
        "cpu.simulator_init.self_s": "s",
        "cpu.l3_miss_rate": "frac",
        "mem.write_bursts": "count",
        "mem.write_queue_stall_s": "s",
        "mem.lifetime.self_s": "s",
        "techniques.latency_model.builds": "count",
        "techniques.latency_model.self_s": "s",
        "techniques.schemes.self_s": "s",
        "circuit.solve.self_s": "s",
        "solver.solves": "count",
        "solver.factorisations": "count",
        "solver.newton_iterations": "count",
        "xpoint.profile_hit_ratio": "frac",
        **{f"analysis.figure.{fig}.self_s": "s" for fig in ARRAY_FIGURES},
        "sim.fig15_anchor_err": "frac",
        "engine.plan_s": "s",
        "engine.disk_cache_hit_ratio": "frac",
        "engine.shm_hit_ratio": "frac",
        "engine.shm_fallbacks": "count",
        "engine.duplicate_solves": "count",
        "engine.coalesce_ratio": "ratio",
        "engine.restarts": "count",
        "client.overhead_s": "s",
        "serve.req_p50_s": "s",
        "serve.req_tail_s": "s",
        "serve.repeat_share": "frac",
        "serve.shared_share": "frac",
        "serve.cold_share": "frac",
        "obs.overhead_frac": "frac",
        "trace.run_s": "s",
        "span_coverage": "frac",
        "unattributed_s": "s",
    }
)


def layer_metrics(tracer) -> dict[str, float]:
    """The span-derived per-layer metrics of a traced run."""
    values: dict[str, float] = {}
    for layer in _SPANNED:
        values[f"{layer}.calls"] = tracer.calls(layer)
        values[f"{layer}.self_s"] = tracer.self_s(layer)
    values["cpu.run.self_s"] = tracer.self_s("cpu.run")
    values["cpu.simulator_init.self_s"] = tracer.self_s("cpu.simulator_init")
    values["mem.lifetime.self_s"] = tracer.self_s("mem.lifetime")
    values["techniques.latency_model.builds"] = tracer.calls(
        "techniques.latency_model"
    )
    values["techniques.latency_model.self_s"] = tracer.self_s(
        "techniques.latency_model"
    )
    values["techniques.schemes.self_s"] = tracer.self_s("techniques.schemes")
    values["circuit.solve.self_s"] = tracer.self_s("circuit.solve")
    for fig in ARRAY_FIGURES:
        key = f"analysis.figure.{fig}"
        values[f"{key}.self_s"] = tracer.self_s(key)
    return values


def solver_metrics(counters: dict) -> dict[str, float]:
    """The program's own obs counters for the circuit layer."""
    from .layers import profile_hit_ratio

    return {
        "solver.solves": counters.get("solver.solves", 0),
        "solver.factorisations": counters.get("solver.factorisations", 0),
        "solver.newton_iterations": counters.get(
            "solver.newton_iterations", 0
        ),
        "xpoint.profile_hit_ratio": profile_hit_ratio(counters),
    }
