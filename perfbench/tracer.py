"""Layer tracing from outside the program.

The benchmark adds no code to ``src/``: in a traced run it replaces a
module's public functions with timing wrappers for the run's duration.
Each wrapper is one span; spans nest through a stack, so a layer's
*self time* is its span time minus the time of the spans it caused.
Aggregates (calls, total, self) are kept in memory per layer name and
reported when the run ends.

``attribution`` turns the aggregates into the per-workload table: the
layer self times plus ``unattributed_s`` sum to the traced wall time.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Tracer:
    """Span stack plus per-layer ``[calls, total_s, self_s]`` aggregates."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.layers: dict[str, list] = {}
        self._stack: list[float] = []  # child time accumulated per open span

    def _open(self, name: str) -> tuple[list, float]:
        self._stack.append(0.0)
        return self.layers.setdefault(name, [0, 0.0, 0.0]), self.clock()

    def _close(self, agg: list, start: float) -> None:
        elapsed = self.clock() - start
        children = self._stack.pop()
        agg[0] += 1
        agg[1] += elapsed
        agg[2] += elapsed - children
        if self._stack:
            self._stack[-1] += elapsed

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as one span of layer ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            agg, start = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(agg, start)

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        agg, start = self._open(name)
        try:
            yield
        finally:
            self._close(agg, start)

    def calls(self, name: str) -> int:
        return self.layers.get(name, [0, 0.0, 0.0])[0]

    def self_s(self, name: str) -> float:
        return self.layers.get(name, [0, 0.0, 0.0])[2]

    def total_calls(self) -> int:
        return sum(agg[0] for agg in self.layers.values())


@contextmanager
def installed(tracer: Tracer, targets):
    """Patch every ``(owner, attribute, layer)`` target for the block.

    ``owner`` is a class or module; the original attribute is restored
    on exit, in reverse order, so a target listed twice unwinds cleanly.
    """
    saved = []
    try:
        for owner, attribute, layer in targets:
            original = owner.__dict__[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, tracer.wrap(layer, original))
        yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def per_call_overhead_s(samples: int = 200_000) -> float:
    """Measured cost one wrapper adds to a call (host seconds)."""
    tracer = Tracer()

    def noop():
        return None

    traced = tracer.wrap("calibrate", noop)
    clock = time.perf_counter
    best = float("inf")
    for _ in range(3):
        start = clock()
        for _ in range(samples):
            noop()
        plain = clock() - start
        start = clock()
        for _ in range(samples):
            traced()
        best = min(best, (clock() - start - plain) / samples)
    return max(best, 0.0)


def attribution(tracer: Tracer, wall_s: float) -> dict:
    """Self time per layer plus the unattributed remainder of ``wall_s``.

    The rows' ``self_s`` and ``unattributed_s`` sum to ``wall_s`` exactly;
    ``coverage`` is the share of the wall time some span accounts for.
    """
    rows = {
        name: {"calls": agg[0], "self_s": agg[2]}
        for name, agg in sorted(
            tracer.layers.items(), key=lambda item: -item[1][2]
        )
        if agg[0]
    }
    attributed = sum(row["self_s"] for row in rows.values())
    unattributed = wall_s - attributed
    return {
        "wall_s": wall_s,
        "rows": rows,
        "unattributed_s": unattributed,
        "coverage": attributed / wall_s if wall_s > 0 else 0.0,
    }


def format_attribution(workload: str, table: dict) -> str:
    wall = table["wall_s"]
    lines = [
        f"attribution [{workload}]  wall {wall:.3f} s  "
        f"span coverage {100 * table['coverage']:.1f}%",
        f"  {'layer':<34} {'calls':>10} {'self_s':>10} {'share':>7}",
    ]
    for name, row in table["rows"].items():
        share = row["self_s"] / wall if wall else 0.0
        lines.append(
            f"  {name:<34} {row['calls']:>10} {row['self_s']:>10.3f} "
            f"{100 * share:>6.1f}%"
        )
    rest = table["unattributed_s"]
    lines.append(
        f"  {'unattributed':<34} {'':>10} {rest:>10.3f} "
        f"{100 * rest / wall if wall else 0.0:>6.1f}%"
    )
    total = rest + sum(row["self_s"] for row in table["rows"].values())
    lines.append(f"  {'sum':<34} {'':>10} {total:>10.3f}")
    return "\n".join(lines)
