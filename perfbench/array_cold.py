"""``array-cold``: circuit figures computed from cold model state.

Runs ``run_experiment`` on Figs. 4, 7b, 11, 13 and 5b as a batch user
does, with the default solver and no disk cache.  Every figure gets a
fresh ``ModelCache`` after the process-wide profile registry and solver
state are reset, so each one pays its own circuit solves.  The seed
sets the order of the figures in a pass; with the reset between
figures the order must not change any payload.

Set-up is importing the package (there is nothing else to build); the
timed phase repeats passes over the figure set (see
``common.another_pass``).
"""

from __future__ import annotations

import hashlib
import json
import random
from contextlib import nullcontext

from .common import (
    Outcome,
    another_pass,
    clock,
    import_trials,
    reset_program_state,
    self_peak_rss_mb,
)
from .hostspeed import HostSpeed, host_line, scale
from .metrics import ARRAY_FIGURES, layer_metrics, solver_metrics
from .stats import median, tail

#: Paper anchors the outputs are checked against, with tolerances.
WORST_VEFF_V = (1.70, 0.02)  # Fig. 4b worst-corner effective Vrst
ARRAY_RESET_S = (2.29e-6, 0.05e-6)  # Fig. 4c array RESET latency
PR_OPTIMUM_BITS = 4  # Fig. 11 partition sweet spot
#: Fig. 5b: lifetimes from longest to shortest, as in the paper.
LIFETIME_ORDER = ("Base", "UDRVR+PR", "DRVR", "DRVR+PR", "Hard+Sys", "Static-3.7V")


def check_payload(out: Outcome, op: str, figure: str, payload: dict) -> None:
    """The figure's paper anchors."""
    if figure == "fig04":
        veff = payload["v_eff"].minimum
        latency = payload["latency"].maximum
        out.check(
            abs(veff - WORST_VEFF_V[0]) <= WORST_VEFF_V[1],
            op,
            f"worst-corner v_eff {veff:.4f} V outside {WORST_VEFF_V}",
        )
        out.check(
            abs(latency - ARRAY_RESET_S[0]) <= ARRAY_RESET_S[1],
            op,
            f"array RESET {latency:.4e} s outside {ARRAY_RESET_S}",
        )
    elif figure == "fig11":
        out.check(
            payload["n_bits"] == PR_OPTIMUM_BITS,
            op,
            f"PR optimum {payload['n_bits']} bits, expected {PR_OPTIMUM_BITS}",
        )
    elif figure == "fig05b":
        years = {report.scheme: report.years for report in payload["reports"]}
        ordered = [years[name] for name in LIFETIME_ORDER]
        out.check(
            all(a > b for a, b in zip(ordered, ordered[1:])),
            op,
            f"lifetime order {LIFETIME_ORDER} violated: {years}",
        )


def payload_digest(result) -> str:
    document = json.dumps(result.to_plain()["payload"], sort_keys=True)
    return hashlib.sha256(document.encode()).hexdigest()


def run(args, tracer=None) -> Outcome:
    from repro import obs
    from repro.engine import RunContext, run_experiment
    from repro.xpoint.vmap import ModelCache

    out = Outcome()
    order = list(ARRAY_FIGURES)
    random.Random(args.seed).shuffle(order)
    collector = obs.Collector() if tracer else None
    host = HostSpeed()
    host.sample(3)
    imports = import_trials()
    digests: dict[str, str] = {}
    passes, figure_times = [], []
    traced_start = start_all = clock()
    spent_before = host.spent
    with obs.collecting(collector) if collector else nullcontext():
        while True:
            pass_start = clock()
            reference_s = 0.0
            for figure in order:
                op = f"pass{len(passes)}/{figure}"
                out.attempted += 1
                reference_s += host.sample(2)
                start = clock()
                try:
                    reset_program_state()
                    context = RunContext(model_cache=ModelCache())
                    span = (
                        tracer.span(f"analysis.figure.{figure}")
                        if tracer
                        else nullcontext()
                    )
                    with span:
                        result = run_experiment(figure, context)
                except Exception as exc:  # noqa: BLE001 - counted, reported
                    out.fail(op, f"{type(exc).__name__}: {exc}")
                    continue
                figure_times.append(clock() - start)
                out.check(result.complete, op, f"partial result {result.errors}")
                check_payload(out, op, figure, result.payload)
                digest = payload_digest(result)
                out.check(
                    digests.setdefault(figure, digest) == digest,
                    op,
                    "payload differs between passes",
                )
            passes.append(clock() - pass_start - reference_s)
            if not another_pass(start_all, passes, args.seconds):
                break
    # The kernel timings are the benchmark's own, not traced work.
    wall_s = clock() - traced_start - (host.spent - spent_before)
    host.sample(3)

    raw = {
        "setup_s": median(imports),
        "run_s": median(passes),
        "ops_per_s": len(figure_times) / sum(passes),
        "op_p50_s": median(figure_times) if figure_times else float("nan"),
        "op_tail_s": tail(figure_times)[0] if figure_times else float("nan"),
    }
    scaled = scale(raw, host.slowdown)
    out.metrics = {
        **{name: scaled[name] for name in ("setup_s", "run_s", "ops_per_s")},
        "peak_rss_mb": self_peak_rss_mb(),
    }
    out.digest = hashlib.sha256(
        "".join(digests[f] for f in sorted(digests)).encode()
    ).hexdigest()
    out.report += [
        f"set-up: import {median(imports):.3f} s (median of {len(imports)})",
        f"figure order {order}; passes {[round(p, 3) for p in passes]}",
        host_line(host, raw),
        f"run_s = {scaled['run_s']:.4f} s (reference seconds per figure set, "
        f"median of {len(passes)}); figure p50 {scaled['op_p50_s']:.4f} s, "
        f"slowest {scaled['op_tail_s']:.4f} s",
        *[f"payload {f} sha256={digests[f]}" for f in sorted(digests)],
    ]
    if tracer:
        from .tracer import attribution, per_call_overhead_s

        out.attribution = attribution(tracer, wall_s)
        cost = per_call_overhead_s() * tracer.total_calls()
        out.layers = {
            **layer_metrics(tracer),
            **solver_metrics(collector.counters),
            "obs.overhead_frac": cost / max(wall_s - cost, 1e-9),
            "trace.run_s": out.metrics["run_s"],
        }
    return out
