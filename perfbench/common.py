"""Pieces every workload shares: the run outcome, set-up timing, memory."""

from __future__ import annotations

import os
import pathlib
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3

clock = time.perf_counter


@dataclass
class Outcome:
    """What one run measured and checked.

    ``failed_ops`` maps an operation id to the reasons it failed (an
    exception or a failing output check); ``attempted`` counts every
    operation started.
    """

    attempted: int = 0
    failed_ops: dict[str, list[str]] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    report: list[str] = field(default_factory=list)
    attribution: "dict | None" = None
    digest: "str | None" = None

    def fail(self, op: str, reason: str) -> None:
        self.failed_ops.setdefault(op, []).append(reason)

    def check(self, ok: bool, ops, reason: str) -> None:
        """Record ``reason`` against every op in ``ops`` unless ``ok``."""
        if not ok:
            for op in [ops] if isinstance(ops, str) else ops:
                self.fail(op, reason)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)


def another_pass(start: float, passes: list[float], seconds: float) -> bool:
    """Whether to run one more pass over the workload's fixed work set.

    Every run does at least one whole pass; another follows while it is
    expected (from the last pass) to end within 1.25 x ``seconds``, so a
    run's length stays near ``--seconds`` whatever the pass length.
    """
    return clock() - start + passes[-1] <= 1.25 * seconds


def program_env() -> dict:
    """Environment for a child Python that imports ``repro`` from source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def import_trials(repeats: int = SETUP_REPEATS) -> list[float]:
    """Seconds for a fresh interpreter to import the package and exit.

    This is the part of set-up a user pays on every process start; it
    is measured in child processes so it can be repeated.
    """
    times = []
    for _ in range(repeats):
        start = clock()
        subprocess.run(
            [sys.executable, "-c", "import repro.analysis.experiments"],
            cwd=ROOT,
            env=program_env(),
            check=True,
            timeout=60,
        )
        times.append(clock() - start)
    return times


def reset_program_state() -> None:
    """Drop every process-wide cache the program keeps between runs.

    The default IR-model cache, the profile registry and the solver
    singletons' structure caches; after this the next model build and
    solve start cold, as in a fresh process.
    """
    from repro.circuit.solvers import reset_backend_state
    from repro.xpoint import vmap

    vmap._DEFAULT_CACHE.clear()  # the cache ``get_ir_model`` serves from
    vmap.profile_registry.clear()
    reset_backend_state()


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MB."""
    status = pathlib.Path(f"/proc/{pid}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def children_of(pid: int) -> list[int]:
    """Direct child PIDs of ``pid``."""
    kids = []
    for entry in pathlib.Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        fields = stat[stat.rindex(")") + 2 :].split()
        if int(fields[1]) == pid:
            kids.append(int(entry.name))
    return kids
