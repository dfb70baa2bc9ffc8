#!/usr/bin/env python
"""Load-test the planning service and record ``BENCH_serve.json``.

Two identical duplicate-heavy passes against a real ``repro-soc serve``
subprocess -- one with live telemetry (the default), one with
``--no-telemetry --no-log`` (the zero-overhead configuration).  Each
pass fires ``--clients`` concurrent clients, every client submitting
``--requests`` plans drawn round-robin from a small (design, width)
pool, so most submissions coalesce onto in-flight jobs and the dedup
window stays hot.  Per pass the harness records the sustained request
throughput, the plan completion rate from the server's own counters,
and the client-observed submit->result latency distribution
(p50/p95/p99).

The telemetry pass also cross-checks the exposition: the
``repro_serve_jobs_submitted_total`` series scraped over the
``metrics`` op must equal the authoritative ``stats`` counter, proving
the mirror cannot drift.

The result is written as versioned JSON so CI can archive it and
``benchmarks/test_bench_serve.py`` can validate the committed copy --
including the overhead gate: telemetry-on throughput must stay within
noise of telemetry-off::

    python scripts/loadtest_serve.py --clients 64 --requests 4 \
        --out benchmarks/results/BENCH_serve.json

``--smoke`` shrinks the load (8 clients x 2 requests) for CI's quick
end-to-end check.  Validation lives in
``scripts/check_obs_artifacts.py --bench``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.obs.expo import parse_openmetrics  # noqa: E402
from repro.pipeline import RunConfig  # noqa: E402
from repro.serve import (  # noqa: E402
    BackpressureError,
    ServiceError,
    connect_with_retry,
)

SCHEMA_KIND = "bench-serve"
SCHEMA_VERSION = 1

READY_DEADLINE_S = 60.0
EXIT_DEADLINE_S = 120.0
RESULT_TIMEOUT_S = 600.0
MAX_SUBMIT_RETRIES = 8

#: The duplicate-heavy submission pool.  Deliberately much smaller than
#: the request count so concurrent clients keep racing the same
#: fingerprints into the dedup window.
WORKLOAD: tuple[tuple[str, int], ...] = (
    ("d695", 8),
    ("d695", 12),
    ("d695", 16),
    ("synth20", 16),
    ("synth20", 24),
    ("synth30", 24),
)


class LoadTestError(RuntimeError):
    pass


def spawn_server(*, telemetry: bool, workers: int) -> tuple[Any, dict]:
    """Start ``repro-soc serve --port 0``; returns (proc, ready dict)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    # No result cache: the workers must execute every unique plan, or
    # the second pass would measure disk reads instead of the service.
    env["REPRO_NO_CACHE"] = "1"
    argv = [
        sys.executable, "-m", "repro.cli", "serve",
        "--port", "0",
        "--jobs", str(workers),
        "--queue-depth", "64",
    ]
    if not telemetry:
        argv += ["--no-telemetry", "--no-log"]
    proc = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        text=True,
        cwd=REPO,
    )
    deadline = time.monotonic() + READY_DEADLINE_S
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if line.strip():
            ready = json.loads(line)
            if ready.get("event") != "ready":
                raise LoadTestError(f"bad ready line: {ready}")
            return proc, ready
        if proc.poll() is not None:
            raise LoadTestError("server exited before announcing readiness")
    proc.kill()
    raise LoadTestError("server never announced readiness")


def quantile(sorted_values: list[float], q: float) -> float:
    """(n-1)*q positional interpolation over pre-sorted samples."""
    if not sorted_values:
        return 0.0
    rank = (len(sorted_values) - 1) * q
    lo = int(rank)
    hi = min(lo + 1, len(sorted_values) - 1)
    fraction = rank - lo
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * fraction


class ClientStats:
    """Thread-safe accumulator shared by all client threads."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.latencies: list[float] = []
        self.completed = 0
        self.deduped = 0
        self.rejected = 0
        self.failed = 0
        self.submit_attempts = 0
        self.errors: list[str] = []


def client_main(
    index: int,
    host: str,
    port: int,
    requests: int,
    workload: tuple[tuple[str, int], ...],
    stats: ClientStats,
    start: threading.Barrier,
) -> None:
    config = RunConfig(compression="none", use_cache=False)
    try:
        with connect_with_retry(host, port) as client:
            start.wait(timeout=60)
            for i in range(requests):
                design, width = workload[(index + i) % len(workload)]
                began = time.perf_counter()
                ticket = None
                for attempt in range(MAX_SUBMIT_RETRIES):
                    with stats.lock:
                        stats.submit_attempts += 1
                    try:
                        ticket = client.submit(design, width, config)
                        break
                    except BackpressureError as error:
                        time.sleep(max(error.retry_after, 0.05))
                if ticket is None:
                    with stats.lock:
                        stats.rejected += 1
                    continue
                try:
                    # Raises with the job's error code on failure; the
                    # return value is the result export itself.
                    client.result(ticket.job_id, timeout_s=RESULT_TIMEOUT_S)
                except ServiceError:
                    ok = False
                else:
                    ok = True
                seconds = time.perf_counter() - began
                with stats.lock:
                    if ok:
                        stats.completed += 1
                        stats.latencies.append(seconds)
                    else:
                        stats.failed += 1
                    if ticket.deduped:
                        stats.deduped += 1
    except Exception as error:  # noqa: BLE001 -- recorded, fails the run
        with stats.lock:
            stats.errors.append(f"client {index}: {error!r}")


def run_pass(
    *,
    telemetry: bool,
    clients: int,
    requests: int,
    workers: int,
    workload: tuple[tuple[str, int], ...],
) -> dict[str, Any]:
    """One full load pass against a fresh server; returns the record."""
    label = "telemetry on" if telemetry else "telemetry off"
    print(f"[{label}] starting server ({workers} workers)...", flush=True)
    proc, ready = spawn_server(telemetry=telemetry, workers=workers)
    host, port = ready["host"], ready["port"]
    stats = ClientStats()
    start = threading.Barrier(clients + 1)
    threads = [
        threading.Thread(
            target=client_main,
            args=(i, host, port, requests, workload, stats, start),
        )
        for i in range(clients)
    ]
    try:
        for thread in threads:
            thread.start()
        start.wait(timeout=60)
        began = time.perf_counter()
        for thread in threads:
            thread.join(timeout=RESULT_TIMEOUT_S)
        wall = time.perf_counter() - began
        if stats.errors:
            raise LoadTestError("; ".join(stats.errors[:3]))
        if any(thread.is_alive() for thread in threads):
            raise LoadTestError("client threads still running at deadline")

        with connect_with_retry(host, port) as probe:
            server_stats = probe.stats()
            metrics_consistent = None
            if telemetry:
                series = parse_openmetrics(probe.metrics())
                metrics_consistent = series.get(
                    "repro_serve_jobs_submitted_total"
                ) == server_stats["counters"].get("jobs_submitted", 0)
                health = probe.health()
                if health["status"] != "ok":
                    raise LoadTestError(
                        f"unhealthy after load: {health['status']}"
                    )
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=EXIT_DEADLINE_S)
        except subprocess.TimeoutExpired:
            proc.kill()

    total = clients * requests
    latencies = sorted(stats.latencies)
    record = {
        "telemetry": telemetry,
        "wall_seconds": round(wall, 4),
        "requests": total,
        "completed": stats.completed,
        "deduped": stats.deduped,
        "rejected": stats.rejected,
        "failed": stats.failed,
        "submit_attempts": stats.submit_attempts,
        "requests_per_s": round(total / wall, 3),
        "plans_per_s": round(
            server_stats["counters"].get("jobs_completed", 0) / wall, 3
        ),
        "latency_s": {
            "mean": round(sum(latencies) / len(latencies), 5)
            if latencies
            else 0.0,
            "p50": round(quantile(latencies, 0.50), 5),
            "p95": round(quantile(latencies, 0.95), 5),
            "p99": round(quantile(latencies, 0.99), 5),
            "max": round(latencies[-1], 5) if latencies else 0.0,
        },
        "server": {
            "counters": dict(server_stats["counters"]),
            "queue_capacity": server_stats["queue_capacity"],
            "workers": server_stats["workers"],
        },
        "metrics_consistent": metrics_consistent,
    }
    print(
        f"[{label}] {record['requests_per_s']}/s sustained, "
        f"p50 {record['latency_s']['p50'] * 1000:.1f}ms, "
        f"p99 {record['latency_s']['p99'] * 1000:.1f}ms, "
        f"{stats.deduped}/{total} deduped",
        flush=True,
    )
    return record


def measure(
    clients: int,
    requests: int,
    workers: int,
    workload: tuple[tuple[str, int], ...] = WORKLOAD,
) -> dict[str, Any]:
    """The full bench document: telemetry-off pass, then -on."""
    off = run_pass(
        telemetry=False,
        clients=clients,
        requests=requests,
        workers=workers,
        workload=workload,
    )
    on = run_pass(
        telemetry=True,
        clients=clients,
        requests=requests,
        workers=workers,
        workload=workload,
    )
    ratio = (
        on["requests_per_s"] / off["requests_per_s"]
        if off["requests_per_s"]
        else 0.0
    )
    return {
        "kind": SCHEMA_KIND,
        "schema": SCHEMA_VERSION,
        "generated_by": "scripts/loadtest_serve.py",
        "clients": clients,
        "requests_per_client": requests,
        "workers": workers,
        "workload": [list(item) for item in workload],
        "python": platform.python_version(),
        "passes": [off, on],
        "throughput_ratio": round(ratio, 3),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=64)
    parser.add_argument(
        "--requests", type=int, default=4, help="submissions per client"
    )
    parser.add_argument(
        "--jobs", type=int, default=4, help="server worker slots"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny CI configuration: 8 clients x 2 requests, 2 workers",
    )
    parser.add_argument("--out", default=None, help="artifact path")
    args = parser.parse_args(argv)

    clients, requests, workers = args.clients, args.requests, args.jobs
    if args.smoke:
        clients, requests, workers = 8, 2, 2

    try:
        doc = measure(clients, requests, workers)
    except LoadTestError as error:
        print(f"FAIL: {error}", file=sys.stderr)
        return 1

    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text)
    print(
        f"throughput ratio (on/off): {doc['throughput_ratio']:.3f}  "
        f"[{doc['passes'][1]['requests_per_s']}/s vs "
        f"{doc['passes'][0]['requests_per_s']}/s]"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
