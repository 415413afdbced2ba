#!/usr/bin/env python3
"""CI chaos smoke test: the service must survive injected failures.

Boots a real ``python -m repro serve`` subprocess on the supervised
process compute plane with a *seeded* chaos policy armed — worker
kills on in-flight plans, dropped/delayed compute futures, corrupted
``.repro_cache`` entries — and drives two rounds of
concurrent requests from three clients through it.  The contract under
chaos:

* every admitted request completes: either ``ok`` with a payload
  byte-identical to a batch-mode run of the same experiment, or a
  structured error envelope with a known code — never a hang;
* at least three workers are killed mid-run (the policy seed is chosen
  so the kill sites fire deterministically) and the service absorbs
  the deaths by requeue + restart;
* a graceful ``shutdown`` drains everything, the subprocess exits 0,
  and **zero** child processes are leaked (checked by scanning
  ``/proc`` for a marker environment variable the whole process tree
  inherits; a ``multiprocessing.resource_tracker`` child alone gets a
  few seconds to finish exiting).

Usage::

    python scripts/chaos_smoke.py
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import time
import uuid

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.client import ServiceClient, submit_many  # noqa: E402
from repro.engine import run_experiment  # noqa: E402
from repro.engine.warm import warm_context  # noqa: E402

#: Cheap, deterministic circuit-level figures (reference solver, so
#: parity with batch mode is exact byte equality after JSON round-trip).
EXPERIMENTS = ("fig01e", "fig04", "fig11a")
SEEDS = (0, 1, 2, 3)

#: Seed 3 is chosen so >= 2 distinct (experiment, seed) first attempts
#: kill their worker and every killed plan converges on resubmission
#: (verified by tests/chaos/test_policy.py::test_smoke_spec_converges).
#: Kill tokens are (experiment, seed, attempt), so both rounds draw the
#: same kills: four first attempts per round under seed 3.
#: kill_delay_ms=0 kills a drawn worker as its plan starts: with any
#: delay, a warm fig01e/fig11a plan can finish first and cancel its
#: kill, so the death count would hang on job timing.
CHAOS_SPEC = (
    "seed=3,kill_worker_rate=0.25,kill_delay_ms=0,"
    "drop_future_rate=0.1,delay_future_rate=0.1,delay_future_ms=10,"
    "corrupt_cache_rate=0.2"
)

KNOWN_ERROR_CODES = {
    "bad-request", "unknown-experiment", "rejected", "unavailable",
    "deadline", "internal",
}

_LISTENING = re.compile(r"listening on (?P<host>[^:]+):(?P<port>\d+)")


#: How long a ``multiprocessing.resource_tracker`` child may outlive
#: the service: it can still be exiting when the service's own exit
#: status arrives.
_TRACKER_GRACE_S = 5.0
_TRACKER = "multiprocessing.resource_tracker"


def _marker_processes(marker: str) -> "dict[int, str]":
    """PID -> cmdline of processes (other than ours) carrying ``marker``."""
    found = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        proc = pathlib.Path("/proc", entry)
        try:
            environ = (proc / "environ").read_bytes()
            cmdline = (proc / "cmdline").read_bytes()
        except OSError:
            continue
        if marker.encode() in environ:
            found[int(entry)] = cmdline.replace(b"\0", b" ").decode(
                errors="replace"
            ).strip()
    return found


def _leaked_processes(marker: str) -> "dict[int, str]":
    """Marker processes still alive after the service exited.

    Any process other than a resource tracker is reported at once; a
    tracker is waited for up to ``_TRACKER_GRACE_S`` and reported only
    if it is still alive at the deadline.
    """
    deadline = time.monotonic() + _TRACKER_GRACE_S
    while True:
        leaked = _marker_processes(marker)
        trackers = [pid for pid, cmd in leaked.items() if _TRACKER in cmd]
        if (
            not trackers
            or len(trackers) < len(leaked)
            or time.monotonic() >= deadline
        ):
            return leaked
        time.sleep(0.05)


def main() -> int:
    baselines = {
        (name, seed): json.loads(
            json.dumps(
                run_experiment(name, warm_context(seed=seed)).to_plain()
            )
        )["payload"]
        for name in EXPERIMENTS
        for seed in SEEDS
    }

    marker = f"REPRO_CHAOS_SMOKE={uuid.uuid4().hex}"
    marker_key, marker_value = marker.split("=", 1)
    cache_dir = tempfile.mkdtemp(prefix="repro-chaos-cache-")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--compute-plane", "process",
            "--compute-workers", "2",
            "--restart-budget", "16",
            "--cache-dir", cache_dir,
            "--chaos", CHAOS_SPEC,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        cwd=_REPO_ROOT,
        env={
            **os.environ,
            "PYTHONPATH": str(_REPO_ROOT / "src"),
            marker_key: marker_value,
        },
    )
    failures = 0
    try:
        banner = process.stdout.readline()
        match = _LISTENING.search(banner)
        if not match:
            print(f"FAIL: no listening banner, got {banner!r}", file=sys.stderr)
            return 1
        host, port = match.group("host"), int(match.group("port"))
        print(f"service up on {host}:{port} under chaos [{CHAOS_SPEC}]")

        requests = [
            {"op": "run", "experiment": name, "seed": seed}
            for name in EXPERIMENTS
            for seed in SEEDS
        ]
        # Two rounds: round one populates the disk cache, round two
        # reads it back through the corruption injector — quarantined
        # entries must recompute to the identical payload.
        for round_no in (1, 2):
            responses = submit_many(
                requests, host=host, port=port, concurrency=3, timeout_s=180.0
            )
            answered = 0
            for request, response in zip(requests, responses):
                key = (request["experiment"], request["seed"])
                if isinstance(response, Exception):
                    code = getattr(response, "code", None)
                    if code in KNOWN_ERROR_CODES:
                        answered += 1
                        print(f"structured error for {key}: {response}")
                    else:
                        failures += 1
                        print(
                            f"FAIL: round {round_no} {key}: unstructured "
                            f"failure {type(response).__name__}: {response}",
                            file=sys.stderr,
                        )
                    continue
                answered += 1
                if response["result"]["payload"] != baselines[key]:
                    failures += 1
                    print(
                        f"FAIL: round {round_no} {key}: payload diverges "
                        "from batch mode",
                        file=sys.stderr,
                    )
            print(
                f"round {round_no}: {answered}/{len(requests)} requests "
                "answered (ok or structured error)"
            )
            if answered != len(requests):
                failures += 1

        with ServiceClient(host, port, timeout_s=60.0) as client:
            stats = client.stats()
            counters = stats["counters"]
            deaths = counters.get("compute.worker_deaths", 0)
            requeues = counters.get("compute.requeues", 0)
            print(
                f"chaos effects: {deaths} worker deaths, {requeues} "
                f"requeues, breaker={stats['breaker']}"
            )
            if deaths < 3:
                failures += 1
                print(
                    f"FAIL: expected >= 3 chaos worker kills, saw {deaths}",
                    file=sys.stderr,
                )
            chaos_counts = stats.get("chaos", {}).get("counts", {})
            print(f"service-side chaos counts: {chaos_counts}")
            client.shutdown()

        returncode = process.wait(timeout=60)
        if returncode != 0:
            failures += 1
            print(f"FAIL: service exited with {returncode}", file=sys.stderr)
        else:
            print("service drained and exited cleanly")
        leaked = _leaked_processes(marker)
        if leaked:
            failures += 1
            print("FAIL: leaked child processes:", file=sys.stderr)
            for pid, cmdline in sorted(leaked.items()):
                print(f"  {pid}: {cmdline}", file=sys.stderr)
        else:
            print("no leaked child processes")
        return 1 if failures else 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)
        import shutil

        shutil.rmtree(cache_dir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
