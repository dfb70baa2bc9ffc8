#!/usr/bin/env python
"""Validate the observability artifacts a CLI run produced.

CI runs the d695 pipeline with ``--trace``/``--report`` and then this
script against the outputs: it asserts the trace is structurally valid
Chrome trace-event JSON carrying spans from all four pipeline stages
plus at least one worker lane, and that the report matches the
``run-report`` schema with internally consistent numbers.

With ``--bench`` it validates the ``bench-serve`` artifact that
``scripts/loadtest_serve.py`` writes: the planning-service load test
with its telemetry-overhead gate.

Usage::

    python scripts/check_obs_artifacts.py TRACE.json REPORT.json
    python scripts/check_obs_artifacts.py --bench BENCH_serve.json

Exit status 0 when the artifacts check out; 1 with a message on
stderr otherwise.  ``check_trace`` / ``check_report`` /
``check_bench_serve`` are importable for tests.
"""

from __future__ import annotations

import json
import sys
from typing import Any

STAGES = ("wrapper", "decompressor", "architecture", "schedule")


class ArtifactError(ValueError):
    """A structural problem in a trace or report artifact."""


def _fail(message: str) -> None:
    raise ArtifactError(message)


def check_trace(doc: Any, *, expect_workers: bool = True) -> dict[str, int]:
    """Validate Chrome trace-event JSON; returns summary counts."""
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        _fail("trace: top level must be an object with 'traceEvents'")
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        _fail("trace: 'traceEvents' must be a non-empty list")
    complete = [e for e in events if e.get("ph") == "X"]
    for event in events:
        ph = event.get("ph")
        if ph not in ("M", "X", "i"):
            _fail(f"trace: unexpected event phase {ph!r}")
        if ph == "M":
            continue
        for key in ("name", "ts", "pid", "tid"):
            if key not in event:
                _fail(f"trace: {ph!r} event missing {key!r}")
        if event["ts"] < 0:
            _fail("trace: negative timestamp (normalization broken)")
        if ph == "X" and event.get("dur", -1) < 0:
            _fail("trace: complete event without a non-negative 'dur'")
        if "path" not in event.get("args", {}):
            _fail("trace: span event missing args.path")
    names = {e["name"] for e in complete}
    for stage in STAGES:
        if stage not in names:
            _fail(f"trace: no span for pipeline stage {stage!r}")
    pids = {e["pid"] for e in complete}
    if expect_workers and len(pids) < 2:
        _fail("trace: expected worker-process lanes, found a single pid")
    metadata_pids = {e["pid"] for e in events if e.get("ph") == "M"}
    if not pids <= metadata_pids:
        _fail("trace: some pid lacks a process_name metadata record")
    return {"events": len(events), "spans": len(complete), "pids": len(pids)}


def check_report(data: Any) -> dict[str, int]:
    """Validate a run-report JSON document; returns summary counts."""
    if not isinstance(data, dict):
        _fail("report: top level must be an object")
    if data.get("kind") != "run-report":
        _fail(f"report: kind must be 'run-report', got {data.get('kind')!r}")
    if data.get("schema") != 1:
        _fail(f"report: unknown schema {data.get('schema')!r}")
    for key in (
        "soc", "pipeline", "width_budget", "compression", "strategy",
        "test_time", "test_data_volume", "partitions_evaluated",
        "cpu_seconds", "stage_timings", "metrics", "caches",
        "tam_utilization", "event_counts",
    ):
        if key not in data:
            _fail(f"report: missing field {key!r}")
    if data["test_time"] <= 0:
        _fail("report: test_time must be positive")
    stages = [entry["stage"] for entry in data["stage_timings"]]
    if stages != list(STAGES):
        _fail(f"report: stage_timings {stages} != {list(STAGES)}")
    if any(entry["seconds"] < 0 for entry in data["stage_timings"]):
        _fail("report: negative stage timing")
    metrics = data["metrics"]
    for section in ("counters", "gauges", "histograms"):
        if section not in metrics:
            _fail(f"report: metrics missing {section!r}")
    for name, hist in metrics["histograms"].items():
        if len(hist["counts"]) != len(hist["boundaries"]) + 1:
            _fail(f"report: histogram {name!r} counts/boundaries mismatch")
        if sum(hist["counts"]) != hist["count"]:
            _fail(f"report: histogram {name!r} count total mismatch")
    for row in data["tam_utilization"]:
        wasted = (row["total_cycles"] - row["busy_cycles"]) * row["width"]
        if row["wire_cycles_wasted"] != wasted:
            _fail(
                f"report: TAM {row['tam']} wire_cycles_wasted "
                f"{row['wire_cycles_wasted']} != {wasted}"
            )
        if not 0.0 <= row["utilization"] <= 1.0:
            _fail(f"report: TAM {row['tam']} utilization out of [0, 1]")
    if "wrapper_lru" not in data["caches"]:
        _fail("report: caches missing 'wrapper_lru'")
    return {
        "counters": len(metrics["counters"]),
        "tams": len(data["tam_utilization"]),
    }


SCHEMA_KIND_SERVE = "bench-serve"

#: Telemetry-on throughput must stay at least this fraction of the
#: telemetry-off run for the artifact to be accepted: the "within
#: noise" overhead gate of the live-telemetry layer.
SERVE_OVERHEAD_FLOOR = 0.70


def check_bench_serve(data: Any) -> dict[str, Any]:
    """Validate a ``bench-serve`` JSON document; returns a summary.

    Checks the schema envelope, that exactly one telemetry-on and one
    telemetry-off pass are present, each pass's internal consistency
    (request accounting, server-counter conservation, monotone latency
    quantiles, throughput arithmetic), that the workload really was
    duplicate-heavy, and the overhead gate: telemetry-on sustained
    throughput no worse than ``SERVE_OVERHEAD_FLOOR`` of telemetry-off.
    """
    if not isinstance(data, dict):
        _fail("bench: top level must be an object")
    if data.get("kind") != SCHEMA_KIND_SERVE:
        _fail(f"bench: kind must be 'bench-serve', got {data.get('kind')!r}")
    if data.get("schema") != 1:
        _fail(f"bench: unknown schema {data.get('schema')!r}")
    for key in (
        "clients", "requests_per_client", "workers", "workload",
        "python", "passes", "throughput_ratio",
    ):
        if key not in data:
            _fail(f"bench: missing field {key!r}")
    if not isinstance(data["clients"], int) or data["clients"] < 1:
        _fail("bench: 'clients' must be a positive integer")
    workload = data["workload"]
    if not isinstance(workload, list) or not workload:
        _fail("bench: 'workload' must be a non-empty list")
    passes = data["passes"]
    if not isinstance(passes, list) or len(passes) != 2:
        _fail("bench: exactly two passes required (telemetry off and on)")
    by_telemetry: dict[bool, dict] = {}
    for record in passes:
        label = "on" if record.get("telemetry") else "off"
        for key in (
            "telemetry", "wall_seconds", "requests", "completed",
            "deduped", "rejected", "failed", "submit_attempts",
            "requests_per_s", "plans_per_s", "latency_s", "server",
        ):
            if key not in record:
                _fail(f"bench: pass {label!r} missing field {key!r}")
        if record["telemetry"] in by_telemetry:
            _fail(f"bench: duplicate telemetry={record['telemetry']} pass")
        by_telemetry[bool(record["telemetry"])] = record
        expected = data["clients"] * data["requests_per_client"]
        if record["requests"] != expected:
            _fail(
                f"bench: pass {label!r} requests {record['requests']} != "
                f"clients x requests_per_client ({expected})"
            )
        settled = (
            record["completed"] + record["rejected"] + record["failed"]
        )
        if settled != record["requests"]:
            _fail(
                f"bench: pass {label!r} accounting broken: "
                f"{settled} settled != {record['requests']} requests"
            )
        if record["completed"] < 1:
            _fail(f"bench: pass {label!r} completed no requests")
        if record["wall_seconds"] <= 0:
            _fail(f"bench: pass {label!r} has non-positive wall clock")
        rate = record["requests"] / record["wall_seconds"]
        if abs(rate - record["requests_per_s"]) > 0.02 * rate:
            _fail(
                f"bench: pass {label!r} requests_per_s "
                f"{record['requests_per_s']} inconsistent with "
                f"{record['requests']} reqs / {record['wall_seconds']}s"
            )
        counters = record["server"].get("counters", {})
        conserved = (
            counters.get("jobs_submitted", 0)
            + counters.get("jobs_deduped", 0)
            + counters.get("jobs_rejected", 0)
        )
        if conserved != record["submit_attempts"]:
            _fail(
                f"bench: pass {label!r} server counters "
                f"({conserved}) do not conserve the "
                f"{record['submit_attempts']} submit attempts"
            )
        latency = record["latency_s"]
        for key in ("mean", "p50", "p95", "p99", "max"):
            if key not in latency:
                _fail(f"bench: pass {label!r} latency missing {key!r}")
            if latency[key] < 0:
                _fail(f"bench: pass {label!r} negative latency {key}")
        if not (
            latency["p50"] <= latency["p95"]
            <= latency["p99"] <= latency["max"]
        ):
            _fail(f"bench: pass {label!r} latency quantiles not monotone")
        if record.get("metrics_consistent") is False:
            _fail(
                f"bench: pass {label!r} exposition diverged from the "
                "authoritative stats counters"
            )
    if set(by_telemetry) != {True, False}:
        _fail("bench: need one telemetry-on and one telemetry-off pass")
    if max(p["deduped"] for p in passes) < 1:
        _fail("bench: workload was not duplicate-heavy (no dedup hits)")
    on, off = by_telemetry[True], by_telemetry[False]
    ratio = on["requests_per_s"] / off["requests_per_s"]
    if abs(ratio - data["throughput_ratio"]) > 0.02 * ratio + 1e-9:
        _fail(
            f"bench: throughput_ratio {data['throughput_ratio']} "
            f"inconsistent with the recorded passes ({ratio:.3f})"
        )
    if ratio < SERVE_OVERHEAD_FLOOR:
        _fail(
            f"bench: telemetry overhead gate failed: on/off throughput "
            f"ratio {ratio:.3f} < {SERVE_OVERHEAD_FLOOR}"
        )
    return {
        "runs": len(passes),
        "ratio": round(ratio, 3),
        "on_rps": on["requests_per_s"],
        "off_rps": off["requests_per_s"],
        "p99_on_ms": round(on["latency_s"]["p99"] * 1000, 1),
    }


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--bench":
        try:
            with open(argv[1], "r", encoding="utf-8") as handle:
                summary = check_bench_serve(json.load(handle))
        except (OSError, json.JSONDecodeError, ArtifactError, KeyError) as error:
            print(f"FAIL: {error}", file=sys.stderr)
            return 1
        print(
            f"OK: {SCHEMA_KIND_SERVE} with {summary['runs']} run(s): "
            f"telemetry on {summary['on_rps']}/s vs off "
            f"{summary['off_rps']}/s (ratio {summary['ratio']}, "
            f"p99 {summary['p99_on_ms']}ms)"
        )
        return 0
    if len(argv) != 2:
        print(
            "usage: check_obs_artifacts.py TRACE.json REPORT.json\n"
            "       check_obs_artifacts.py --bench BENCH_serve.json",
            file=sys.stderr,
        )
        return 2
    trace_path, report_path = argv
    try:
        with open(trace_path, "r", encoding="utf-8") as handle:
            trace_summary = check_trace(json.load(handle))
        with open(report_path, "r", encoding="utf-8") as handle:
            report_summary = check_report(json.load(handle))
    except (OSError, json.JSONDecodeError, ArtifactError, KeyError) as error:
        print(f"FAIL: {error}", file=sys.stderr)
        return 1
    print(
        f"OK: trace has {trace_summary['spans']} spans across "
        f"{trace_summary['pids']} process lanes; report carries "
        f"{report_summary['counters']} counters over "
        f"{report_summary['tams']} TAMs"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
