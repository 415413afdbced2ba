"""Human-readable rendering of a profile snapshot.

``python -m repro <exp> --profile`` prints :func:`format_profile`;
the same plain-dict form (:meth:`Snapshot.to_plain`) is what ``--json``
embeds and the service's ``stats`` op returns, so the table and the
machine-readable block always agree.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .collector import Snapshot

__all__ = ["derived_ratios", "format_profile"]

#: Ratio rows rendered under "derived": name -> (numerator, denominator).
#: Factorisations per solve is the chord-Newton headline figure — the
#: reference backend sits near its iteration count (~8) while the
#: accelerated backends target <= 2 once warm.
_RATIOS: "dict[str, tuple[str, str]]" = {
    "solver.factorisations_per_solve": (
        "solver.factorisations",
        "solver.solves",
    ),
    "solver.newton_iterations_per_solve": (
        "solver.newton_iterations",
        "solver.solves",
    ),
}


def derived_ratios(counters: "dict[str, float]") -> "dict[str, float]":
    """Ratio metrics computable from raw counters (see :data:`_RATIOS`).

    A ratio is emitted only when its denominator is present and nonzero,
    so profiles from runs that never solved anything stay unchanged.
    """
    ratios: dict[str, float] = {}
    for name, (numerator, denominator) in _RATIOS.items():
        bottom = counters.get(denominator)
        if bottom:
            ratios[name] = counters.get(numerator, 0) / bottom
    return ratios


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.1f}us"


def format_profile(snapshot: "Snapshot | dict") -> str:
    """Render counters, gauges and span timings as aligned tables.

    Accepts a live :class:`~repro.obs.collector.Snapshot` or its
    :meth:`~repro.obs.collector.Snapshot.to_plain` dictionary form.
    """
    # Imported lazily: analysis pulls in the experiment drivers, which
    # import the engine, which imports obs — a module-level import here
    # would close that cycle during interpreter start-up.
    from ..analysis.report import format_table

    plain = snapshot if isinstance(snapshot, dict) else snapshot.to_plain()
    sections = ["== profile =="]
    spans = plain.get("spans") or {}
    if spans:
        rows = [
            [
                name,
                stat["count"],
                _fmt_seconds(stat["total_s"]),
                _fmt_seconds(stat["mean_s"]),
                _fmt_seconds(stat["min_s"]),
                _fmt_seconds(stat["max_s"]),
            ]
            for name, stat in sorted(spans.items())
        ]
        sections.append(
            format_table(
                ("span", "count", "total", "mean", "min", "max"),
                rows,
                title="spans",
            )
        )
    counters = plain.get("counters") or {}
    if counters:
        sections.append(
            format_table(
                ("counter", "value"),
                [[name, value] for name, value in sorted(counters.items())],
                title="counters",
            )
        )
        ratios = derived_ratios(counters)
        if ratios:
            sections.append(
                format_table(
                    ("metric", "value"),
                    [
                        [name, f"{value:.2f}"]
                        for name, value in sorted(ratios.items())
                    ],
                    title="derived",
                )
            )
    gauges = plain.get("gauges") or {}
    if gauges:
        sections.append(
            format_table(
                ("gauge", "value"),
                [[name, value] for name, value in sorted(gauges.items())],
                title="gauges",
            )
        )
    if len(sections) == 1:
        sections.append("(no observations recorded)")
    return "\n\n".join(sections)
