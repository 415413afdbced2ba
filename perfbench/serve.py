"""``serve-mixed``: the request service on its process compute plane.

A real ``python -m repro serve --port 0 --compute-plane process
--compute-workers 2`` process with a fresh ``--cache-dir`` is driven as a
closed loop by this process: two ``ServiceClient`` connections, each
sending its next request only after the previous reply.

Each client's request stream is generated from the workload seed in
blocks of three: a *cold* Fig. 7b on a new ``(fault_rate, seed)`` fault
identity, then -- in seeded order -- a *shared* request and an exact
*repeat* of an earlier request (a result-cache hit).  Shared requests
are first the fault-free Figs. 11a, 7b and 4 (whose paper anchors are
checked), then Fig. 4 on one of the client's fault identities, whose
profiles its cold Fig. 7b already solved.  A client only refers to
identities its own earlier, already answered requests created, so each
class stays in its own latency mode: repeats ~20 ms, shared ~50 ms,
cold ~1-1.5 s.

Set-up is the time from spawning the service to its first ``ping``
answered with both workers alive (median of three spawns), plus one
warm-up request per client that builds the workers' warm contexts.
"""

from __future__ import annotations

import json
import pathlib
import random
import re
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from .common import (
    ROOT,
    SETUP_REPEATS,
    Outcome,
    children_of,
    clock,
    proc_peak_rss_mb,
    program_env,
)
from .metrics import solver_metrics
from .stats import median, tail

WORKERS = 2
CLIENTS = 2
FAULT_RATES = (0.001, 0.002, 0.005)
COLD_EXPERIMENT = "fig07b"
SHARED_EXPERIMENT = "fig04"
FAULT_FREE_EXPERIMENTS = ("fig11a", "fig07b", "fig04")
#: Fault-free anchors (Fig. 4b/4c, Fig. 11a) every fault-free reply meets.
WORST_VEFF_V = (1.70, 0.02)
ARRAY_RESET_S = (2.29e-6, 0.05e-6)
PR_OPTIMUM_BITS = 4
RUN_DIR = ROOT / ".perfbench"
_LISTENING = re.compile(r"listening on (?P<host>[^:\s]+):(?P<port>\d+)")


@dataclass(frozen=True)
class Request:
    kind: str  # "cold" | "shared" | "repeat"
    experiment: str
    fault_rate: "float | None"
    fault_seed: int

    @property
    def identity(self) -> tuple:
        # Fault-free payloads do not depend on the seed.
        seed = None if self.fault_rate is None else self.fault_seed
        return (self.experiment, self.fault_rate, seed)


class RequestMix:
    """One client's seeded request stream (see the module docstring)."""

    def __init__(self, seed: int, client: int) -> None:
        self.rng = random.Random(seed * 1009 + client)
        self.seed = seed
        self.client = client
        # The fault-free array first (its anchors are checked), then the
        # client's own fault identities whose Fig. 4 is still unasked.
        self.fault_free = [
            Request("shared", experiment, None, client)
            for experiment in FAULT_FREE_EXPERIMENTS
        ]
        self.unshared: list[tuple] = []
        self.sent: list[Request] = []
        self.block: list[str] = []
        self.fresh = 0

    def fault_identity(self, index: int) -> tuple:
        """The ``index``-th fault identity of this client (0: warm-up)."""
        rate = FAULT_RATES[(self.seed + index) % len(FAULT_RATES)]
        return rate, self.seed * 10_000 + CLIENTS * index + self.client

    def next(self) -> Request:
        if not self.block:
            rest = ["shared", "repeat"]
            self.rng.shuffle(rest)
            self.block = ["cold", *rest]
        kind = self.block.pop(0)
        if kind == "cold":
            self.fresh += 1
            identity = self.fault_identity(self.fresh)
            self.unshared.append(identity)
            request = Request(kind, COLD_EXPERIMENT, *identity)
        elif kind == "shared" and self.fault_free:
            request = self.fault_free.pop(0)
        elif kind == "shared":
            identity = self.unshared.pop(self.rng.randrange(len(self.unshared)))
            request = Request(kind, SHARED_EXPERIMENT, *identity)
        else:
            earlier = self.rng.choice(self.sent)
            request = Request(
                kind, earlier.experiment, earlier.fault_rate, earlier.fault_seed
            )
        self.sent.append(request)
        return request


def check_fault_free(payload: dict, experiment: str) -> "str | None":
    """Why a fault-free payload misses its paper anchor, or ``None``."""
    if experiment == "fig04":
        veff = payload["v_eff"]["minimum"]
        latency = payload["latency"]["maximum"]
        if abs(veff - WORST_VEFF_V[0]) > WORST_VEFF_V[1]:
            return f"worst-corner v_eff {veff} V outside {WORST_VEFF_V}"
        if abs(latency - ARRAY_RESET_S[0]) > ARRAY_RESET_S[1]:
            return f"array RESET {latency} s outside {ARRAY_RESET_S}"
    elif experiment == "fig11a" and payload["optimal_bits"] != PR_OPTIMUM_BITS:
        return f"optimal bits {payload['optimal_bits']} != {PR_OPTIMUM_BITS}"
    return None


class Server:
    """One ``repro serve`` child process, its log and cache under ``path``."""

    def __init__(self, path: pathlib.Path) -> None:
        path.mkdir(parents=True)
        self.path = path
        self.log = open(path / "serve.log", "w")
        self.spawned = clock()
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--compute-plane", "process",
                "--compute-workers", str(WORKERS),
                "--cache-dir", str(path / "cache"),
            ],
            stdout=self.log,
            stderr=subprocess.STDOUT,
            cwd=ROOT,
            env=program_env(),
        )
        self.host = ""
        self.port = 0

    def wait_ready(self, timeout_s: float = 60.0) -> float:
        """Seconds from spawn until a ping finds every worker alive."""
        from repro.client import ServiceClient

        deadline = self.spawned + timeout_s
        log_path = self.path / "serve.log"
        while not self.port:
            match = _LISTENING.search(log_path.read_text())
            if match:
                self.host, self.port = match["host"], int(match["port"])
            elif self.process.poll() is not None or clock() > deadline:
                raise RuntimeError(f"service did not start: {log_path.read_text()}")
            else:
                time.sleep(0.005)
        with ServiceClient(self.host, self.port, timeout_s=timeout_s) as client:
            while True:
                alive = client.stats()["gauges"].get("compute.workers_alive", 0)
                if alive >= WORKERS and client.ping():
                    return clock() - self.spawned
                if clock() > deadline:
                    raise RuntimeError(f"only {alive} workers alive")
                time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        """Summed peak RSS of the service and its child processes."""
        pid = self.process.pid
        return proc_peak_rss_mb(pid) + sum(
            proc_peak_rss_mb(child) for child in children_of(pid)
        )

    def stop(self) -> "str | None":
        """Drain and stop; the reason it did not stop cleanly, or ``None``."""
        from repro.client import ServiceClient

        children = children_of(self.process.pid)
        problem = None
        try:
            if self.port and self.process.poll() is None:
                with ServiceClient(self.host, self.port, timeout_s=30) as client:
                    client.shutdown()
            code = self.process.wait(timeout=30)
            if code != 0:
                problem = f"service exited with code {code}"
        except Exception as exc:  # noqa: BLE001 - still kill and reap below
            problem = f"shutdown failed: {type(exc).__name__}: {exc}"
        finally:
            if self.process.poll() is None:
                self.process.kill()
                self.process.wait(timeout=30)
            self.log.close()
        deadline = clock() + 10
        while any(_alive(pid) for pid in children) and clock() < deadline:
            time.sleep(0.02)
        leaked = [pid for pid in children if _alive(pid)]
        for pid in leaked:
            subprocess.run(["kill", "-9", str(pid)], check=False)
        if leaked and problem is None:
            problem = f"worker processes outlived the service: {leaked}"
        return problem


def _alive(pid: int) -> bool:
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


def _run_threads(target, arg_lists) -> None:
    threads = [
        threading.Thread(target=target, args=args, name=f"perfbench-client{i}")
        for i, args in enumerate(arg_lists)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _warm_up(server, mix, lock, latencies, out) -> None:
    from repro.client import ServiceClient

    rate, seed = mix.fault_identity(0)
    start = clock()
    try:
        with ServiceClient(server.host, server.port, timeout_s=120) as client:
            client.run(COLD_EXPERIMENT, seed=seed, fault_rate=rate)
        reason = None
    except Exception as exc:  # noqa: BLE001 - counted, reported
        reason = f"{type(exc).__name__}: {exc}"
    with lock:
        out.attempted += 1
        latencies.append(clock() - start)
        if reason:
            out.fail(f"warmup{mix.client}", reason)


def _client_loop(server, mix, deadline, lock, results, out) -> None:
    from repro.client import ServiceClient

    with ServiceClient(server.host, server.port, timeout_s=120) as client:
        index = 0
        while clock() < deadline:
            request = mix.next()
            op = f"client{mix.client}/{index}/{request.kind}"
            index += 1
            start = clock()
            try:
                response = client.run(
                    request.experiment,
                    seed=request.fault_seed,
                    fault_rate=request.fault_rate,
                )
            except Exception as exc:  # noqa: BLE001 - counted, reported
                with lock:
                    out.attempted += 1
                    out.fail(op, f"{type(exc).__name__}: {exc}")
                continue
            latency = clock() - start
            with lock:
                out.attempted += 1
                results.append((mix.client, op, request, latency, response))


def _server_layers(stats: dict) -> tuple[dict, dict]:
    """Per-layer metrics and compute-plane self times from ``stats``.

    The compute plane's span tree (``compute.plan`` and the spans below
    it, merged back from the workers) gives self times per span name;
    ``server.request_plane`` is the request spans' time not spent in a
    plan (admission, queueing, replies).
    """
    counters = stats.get("counters", {})
    spans = stats.get("spans", {})
    totals = {
        path: span["total_s"]
        for path, span in spans.items()
        if path.startswith("compute.plan")
    }
    rows: dict[str, list] = {}  # name -> [calls, total_s, self_s]
    for path, total in totals.items():
        children = sum(
            t for p, t in totals.items()
            if p.startswith(path + "/") and "/" not in p[len(path) + 1 :]
        )
        leaf = "server." + re.sub(r"\[[^\]]*\]", "", path.rsplit("/", 1)[-1])
        row = rows.setdefault(leaf, [0, 0.0, 0.0])
        row[0] += spans[path]["count"]
        row[1] += total
        row[2] += total - children
    def top(prefix: str) -> tuple[int, float]:
        chosen = [
            span for path, span in spans.items()
            if path.startswith(prefix) and "/" not in path
        ]
        return (
            sum(span["count"] for span in chosen),
            sum(span["total_s"] for span in chosen),
        )

    plan_count, plan_total = top("compute.plan")
    request_count, request_total = top("service.request")
    rest = request_total - plan_total
    rows["server.request_plane"] = [request_count, rest, rest]
    plan_s = plan_total / plan_count if plan_count else 0.0
    disk = counters.get("disk_cache.hit", 0) + counters.get("disk_cache.miss", 0)
    misses = counters.get("profile_cache.miss", 0)
    layers = {
        **solver_metrics(counters),
        "engine.plan_s": plan_s,
        "engine.disk_cache_hit_ratio": (
            counters.get("disk_cache.hit", 0) / disk if disk else 0.0
        ),
        "engine.shm_hit_ratio": (
            counters.get("profile_cache.shared_hit", 0) / misses if misses else 0.0
        ),
        "engine.shm_fallbacks": counters.get("profile_cache.shm_fallbacks", 0),
        "engine.duplicate_solves": counters.get("profile_cache.duplicate_solves", 0),
        "engine.coalesce_ratio": stats.get("coalesce_ratio", 1.0),
        "engine.restarts": counters.get("compute.worker_restarts", 0),
    }
    return layers, rows


def run(args, tracer=None) -> Outcome:
    out = Outcome()
    run_dir = RUN_DIR / f"serve-{args.seed}-{id(out):x}-{time.time_ns()}"
    server = None
    try:
        ready = []
        for trial in range(SETUP_REPEATS):
            server = Server(run_dir / f"trial{trial}")
            ready.append(server.wait_ready())
            if trial < SETUP_REPEATS - 1:
                problem = server.stop()
                out.attempted += 1
                out.check(problem is None, f"setup{trial}", str(problem))
        results: list = []
        lock = threading.Lock()
        mixes = [RequestMix(args.seed, client) for client in range(CLIENTS)]
        # Each worker's first request builds its warm context and the
        # nominal calibrations; a long-running service pays that once,
        # so it is set-up, not measured traffic.
        start = clock()
        warmups: list[float] = []
        _run_threads(
            _warm_up, [(server, mix, lock, warmups, out) for mix in mixes]
        )
        warmup_s = clock() - start
        start = clock()
        deadline = start + args.seconds
        _run_threads(
            _client_loop,
            [(server, mix, deadline, lock, results, out) for mix in mixes],
        )
        window = clock() - start
        from repro.client import ServiceClient

        with ServiceClient(server.host, server.port, timeout_s=60) as client:
            stats = client.stats()
        peak_rss = server.peak_rss_mb()
        problem = server.stop()
        out.attempted += 1
        out.check(problem is None, "shutdown", str(problem))
        server = None
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            RUN_DIR.rmdir()
        except OSError:
            pass  # another run still uses it

    latencies = [latency for _, _, _, latency, _ in results]
    first: dict[tuple, bytes] = {}
    for _, op, request, _, response in results:
        payload = response["result"]["payload"]
        body = json.dumps(payload, sort_keys=True).encode()
        out.check(
            first.setdefault(request.identity, body) == body,
            op,
            f"reply differs from an earlier one for {request.identity}",
        )
        if request.fault_rate is None:
            reason = check_fault_free(payload, request.experiment)
            out.check(reason is None, op, f"fault-free anchor: {reason}")
    blocks = []
    for client in range(CLIENTS):
        own = [latency for c, _, _, latency, _ in results if c == client]
        blocks += [sum(own[i : i + 3]) for i in range(0, len(own) - 2, 3)]
    kinds = {
        kind: [lat for _, _, req, lat, _ in results if req.kind == kind]
        for kind in ("repeat", "shared", "cold")
    }
    n = max(len(results), 1)
    # Host seconds: the host-speed kernel could only run while the
    # service is idle, and timings taken then did not track the loop.
    p50_s = median(latencies) if latencies else float("nan")
    tail_s, tail_pct = tail(latencies) if latencies else (float("nan"), 0.0)
    out.metrics = {
        "setup_s": median(ready) + warmup_s,
        "peak_rss_mb": peak_rss,
        "run_s": median(blocks) if blocks else float("nan"),
        "ops_per_s": len(results) / window,
    }
    out.report += [
        f"set-up: spawn to ready {[round(r, 3) for r in ready]} s, "
        f"worker warm-up {warmup_s:.3f} s",
        f"closed loop: {CLIENTS} clients, {len(results)} replies in "
        f"{window:.3f} s",
        *[
            f"share {kind} = {len(lats) / n:.3f} frac, median "
            f"{median(lats) if lats else float('nan'):.4f} s ({len(lats)})"
            for kind, lats in kinds.items()
        ],
        f"req_per_s = {out.metrics['ops_per_s']:.3f} 1/s",
        f"req_p50_s = {p50_s:.4f} s",
        f"req_tail_s = {tail_s:.4f} s "
        f"(p{tail_pct:.0f} of {len(latencies)})",
        f"block_s = {out.metrics['run_s']:.4f} s (median of {len(blocks)} "
        "cold+shared+repeat blocks)",
    ]
    if tracer is not None:
        from .tracer import attribution

        layers, server_rows = _server_layers(stats)
        # Client-side busy time of every request the service served.
        busy = sum(latencies) + sum(warmups)
        tracer.layers.update(server_rows)
        out.attribution = attribution(tracer, busy)
        out.layers = {
            **layers,
            "client.overhead_s": (
                busy / (len(latencies) + len(warmups)) - layers["engine.plan_s"]
            ),
            **{
                f"serve.{kind}_share": len(lats) / n
                for kind, lats in kinds.items()
            },
            "serve.req_p50_s": p50_s,
            "serve.req_tail_s": tail_s,
            "trace.run_s": out.metrics["run_s"],
        }
    return out
