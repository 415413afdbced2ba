#!/usr/bin/env python3
"""CI smoke test for ``python -m repro serve``.

Boots a real service subprocess on an ephemeral port, drives four
concurrent requests through :mod:`repro.client` (three experiments and
a duplicate of one of them), and checks each payload, both copies of
the duplicate included, against an in-process batch-mode run of the
same experiment —
the two front doors must produce identical documents (both run the
default ``batched`` solver, so parity is exact, not approximate).
Finishes with a graceful ``shutdown`` op and asserts the subprocess
drains and exits cleanly with no leaked child processes (the serve
subprocess gets a marker environment variable its whole process tree
inherits; after exit, nothing on the machine may still carry it).

``--compute-plane`` is passed to ``serve``: the default ``thread``
plane, or ``process`` for the supervised worker pool.  On the process
plane the duplicate shares its original's group key, so it joins the
worker running its group-mate whenever it arrives while that job is in
flight; the script prints ``compute.grouped_jobs``.

Usage::

    python scripts/service_smoke.py [--compute-plane {thread,process}]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import re
import subprocess
import sys
import uuid

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.client import ServiceClient, submit_many  # noqa: E402
from repro.engine import run_experiment  # noqa: E402
from repro.engine.warm import warm_context  # noqa: E402

#: Cheap, deterministic circuit-level figures: no trace generation,
#: each a different payload shape.
EXPERIMENTS = ("fig01e", "fig04", "fig11a")
#: The concurrent batch: every experiment once, plus a duplicate.
REQUESTS = (*EXPERIMENTS, "fig04")

_LISTENING = re.compile(r"listening on (?P<host>[^:]+):(?P<port>\d+)")


def _leaked_processes(marker: str) -> "list[int]":
    """PIDs (other than ours) whose environment carries ``marker``."""
    leaked = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            environ = pathlib.Path("/proc", entry, "environ").read_bytes()
        except OSError:
            continue
        if marker.encode() in environ:
            leaked.append(int(entry))
    return leaked


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--compute-plane", choices=("thread", "process"), default="thread",
        help="compute plane the service starts on (default: thread)",
    )
    args = parser.parse_args(argv)
    # Batch-mode baselines first, in this process: at this point no
    # service exists anywhere, making this the plain historical path.  The JSON round-trip normalises tuples to
    # lists exactly as the wire protocol will.
    baselines = {
        name: json.loads(
            json.dumps(run_experiment(name, warm_context()).to_plain())
        )["payload"]
        for name in EXPERIMENTS
    }

    marker = f"REPRO_SERVICE_SMOKE={uuid.uuid4().hex}"
    marker_name, marker_value = marker.split("=", 1)
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--compute-workers", "2", "--no-cache",
            "--compute-plane", args.compute_plane,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        cwd=_REPO_ROOT,
        env={
            **os.environ,
            "PYTHONPATH": str(_REPO_ROOT / "src"),
            marker_name: marker_value,
        },
    )
    try:
        banner = process.stdout.readline()
        match = _LISTENING.search(banner)
        if not match:
            print(f"FAIL: no listening banner, got {banner!r}", file=sys.stderr)
            return 1
        host, port = match.group("host"), int(match.group("port"))
        print(f"service up on {host}:{port} ({args.compute_plane} plane)")

        responses = submit_many(
            [{"op": "run", "experiment": name} for name in REQUESTS],
            host=host,
            port=port,
            concurrency=len(REQUESTS),
        )
        failures = 0
        for name, response in zip(REQUESTS, responses):
            if isinstance(response, Exception):
                print(f"FAIL: {name}: {response}", file=sys.stderr)
                failures += 1
                continue
            payload = response["result"]["payload"]
            if payload != baselines[name]:
                print(
                    f"FAIL: {name}: service payload diverges from batch mode",
                    file=sys.stderr,
                )
                failures += 1
            else:
                print(f"ok: {name} payload identical to batch mode")
        with ServiceClient(host, port) as client:
            stats = client.stats()
            completed = stats["counters"].get("service.completed", 0)
            solves = stats["counters"].get("solver.solves", 0)
            joins = stats["counters"].get("compute.grouped_jobs", 0)
            print(
                f"service stats: {completed} completed, {solves} solves, "
                f"{joins} grouped jobs"
            )
            if completed < len(REQUESTS):
                print("FAIL: completed counter below request count",
                      file=sys.stderr)
                failures += 1
            client.shutdown()
        returncode = process.wait(timeout=30)
        if returncode != 0:
            print(f"FAIL: service exited with {returncode}", file=sys.stderr)
            failures += 1
        else:
            print("service drained and exited cleanly")
        leaked = _leaked_processes(marker)
        if leaked:
            print(f"FAIL: leaked child processes: {leaked}", file=sys.stderr)
            failures += 1
        else:
            print("no leaked child processes")
        return 1 if failures else 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)


if __name__ == "__main__":
    raise SystemExit(main())
