"""The exportable run report: one JSON artifact per observed run.

A :class:`RunReport` folds everything a planner looks at after a run
into one document: stage wall-clock timings from the event stream, the
metrics snapshot (per-core analysis latency histogram, cache traffic,
search counters), the state of every cache layer (persistent analysis
disk cache, wrapper-design LRU), the per-TAM utilization breakdown
from :mod:`repro.reporting.profile`, and an event-kind census.  The
pipeline attaches it to ``PlanResult.report`` when observability is
enabled; the CLI writes it with ``--report out.json`` and renders it
back with ``repro-soc report out.json``.

The report is deliberately self-contained plain data: it round-trips
through JSON (:meth:`RunReport.to_json` / :meth:`RunReport.from_json`)
and never references live objects, so it can be archived next to the
exported architecture and diffed across runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:
    from repro.obs.context import Observability
    from repro.pipeline.events import EventRecorder

#: Bump on any incompatible change to the report layout.
REPORT_SCHEMA_VERSION = 1


@dataclass(frozen=True, eq=True)
class RunReport:
    """Aggregated observability artifact of one pipeline run."""

    soc_name: str
    pipeline: str
    width_budget: int
    compression: str
    strategy: str
    test_time: int
    test_data_volume: int
    partitions_evaluated: int
    cpu_seconds: float
    stage_timings: tuple[tuple[str, float], ...] = ()
    #: ``MetricsRegistry.snapshot()`` of the run's registry.
    metrics: Mapping[str, Any] = field(default_factory=dict)
    #: Per cache layer: wrapper LRU, analysis disk cache.
    caches: Mapping[str, Any] = field(default_factory=dict)
    #: Per-TAM busy breakdown (see :class:`repro.reporting.profile.TamUtilization`).
    tam_utilization: tuple[Mapping[str, Any], ...] = ()
    #: Event-kind census of the run's event stream.
    event_counts: Mapping[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": REPORT_SCHEMA_VERSION,
            "kind": "run-report",
            "soc": self.soc_name,
            "pipeline": self.pipeline,
            "width_budget": self.width_budget,
            "compression": self.compression,
            "strategy": self.strategy,
            "test_time": self.test_time,
            "test_data_volume": self.test_data_volume,
            "partitions_evaluated": self.partitions_evaluated,
            "cpu_seconds": self.cpu_seconds,
            "stage_timings": [
                {"stage": stage, "seconds": seconds}
                for stage, seconds in self.stage_timings
            ],
            "metrics": dict(self.metrics),
            "caches": dict(self.caches),
            "tam_utilization": [dict(t) for t in self.tam_utilization],
            "event_counts": dict(self.event_counts),
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "RunReport":
        schema = data.get("schema")
        if schema != REPORT_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported run-report schema {schema!r} "
                f"(this build reads {REPORT_SCHEMA_VERSION})"
            )
        return RunReport(
            soc_name=data["soc"],
            pipeline=data["pipeline"],
            width_budget=data["width_budget"],
            compression=data["compression"],
            strategy=data["strategy"],
            test_time=data["test_time"],
            test_data_volume=data["test_data_volume"],
            partitions_evaluated=data["partitions_evaluated"],
            cpu_seconds=data["cpu_seconds"],
            stage_timings=tuple(
                (entry["stage"], entry["seconds"])
                for entry in data.get("stage_timings", ())
            ),
            metrics=dict(data.get("metrics", {})),
            caches=dict(data.get("caches", {})),
            tam_utilization=tuple(
                dict(t) for t in data.get("tam_utilization", ())
            ),
            event_counts=dict(data.get("event_counts", {})),
        )

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @staticmethod
    def from_json(text: str) -> "RunReport":
        return RunReport.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# Construction from a finished run.
# ---------------------------------------------------------------------------


def build_run_report(
    *,
    soc_name: str,
    pipeline: str,
    width_budget: int,
    compression: str,
    strategy: str,
    partitions_evaluated: int,
    cpu_seconds: float,
    architecture: Any,
    recorder: "EventRecorder",
    obs: "Observability",
) -> RunReport:
    """Assemble the report of one finished pipeline run.

    Derives the gauge metrics that only make sense at end-of-run (the
    wrapper-design LRU hit rate) and folds every cache layer's counters
    in, so the artifact is complete without the caller pre-digesting
    anything.
    """
    from repro.reporting.profile import tam_utilization
    from repro.wrapper.design import wrapper_cache_info

    wrapper_info = wrapper_cache_info()
    lookups = wrapper_info["hits"] + wrapper_info["misses"]
    if lookups:
        obs.registry.set_gauge(
            "wrapper.cache.hit_rate", wrapper_info["hits"] / lookups
        )

    caches: dict[str, Any] = {"wrapper_lru": wrapper_info}
    disk: dict[str, int] = {}
    for event in recorder.events:
        if event.kind == "cache-stats":
            for key in ("hits", "misses", "stores", "corrupt"):
                disk[key] = disk.get(key, 0) + int(event.payload.get(key, 0))
    if disk:
        caches["analysis_disk"] = disk

    event_counts: dict[str, int] = {}
    for event in recorder.events:
        event_counts[event.kind] = event_counts.get(event.kind, 0) + 1

    return RunReport(
        soc_name=soc_name,
        pipeline=pipeline,
        width_budget=width_budget,
        compression=compression,
        strategy=strategy,
        test_time=architecture.test_time,
        test_data_volume=architecture.test_data_volume,
        partitions_evaluated=partitions_evaluated,
        cpu_seconds=cpu_seconds,
        stage_timings=recorder.stage_timings(),
        metrics=obs.registry.snapshot(),
        caches=caches,
        tam_utilization=tuple(
            {
                "tam": stat.tam_index,
                "width": stat.width,
                "busy_cycles": stat.busy_cycles,
                "total_cycles": stat.total_cycles,
                "utilization": stat.utilization,
                "wire_cycles_wasted": stat.wire_cycles_wasted,
            }
            for stat in tam_utilization(architecture)
        ),
        event_counts=event_counts,
    )


def session_report(obs: "Observability") -> dict[str, Any]:
    """Metrics-only report for multi-run invocations (figures/tables).

    Commands that execute many pipeline runs have no single
    architecture to profile; their ``--report`` artifact carries the
    session's accumulated metrics and span census instead.
    """
    spans = obs.tracer.spans
    return {
        "schema": REPORT_SCHEMA_VERSION,
        "kind": "session-report",
        "metrics": obs.registry.snapshot(),
        "span_count": len(spans),
        "span_seconds": sum(s.seconds for s in spans),
    }


# ---------------------------------------------------------------------------
# Human rendering (the `repro-soc report` subcommand).
# ---------------------------------------------------------------------------


def render_report(report: RunReport) -> str:
    """Multi-table plain-text summary of a :class:`RunReport`."""
    # Imported here: repro.reporting pulls in the experiment drivers,
    # which import the pipeline, which imports repro.obs -- a cycle at
    # module-import time, broken by deferring to first render.
    from repro.reporting.tables import format_table

    blocks: list[str] = [
        (
            f"run report: {report.soc_name} at W={report.width_budget} "
            f"({report.pipeline} pipeline, compression={report.compression})\n"
            f"  test time {report.test_time:,} cycles, "
            f"volume {report.test_data_volume:,} bits, "
            f"{report.partitions_evaluated:,} partitions "
            f"({report.strategy}), cpu {report.cpu_seconds:.2f} s"
        )
    ]
    if report.stage_timings:
        total = sum(seconds for _, seconds in report.stage_timings) or 1.0
        blocks.append(
            format_table(
                ["stage", "seconds", "share"],
                [
                    (stage, f"{seconds:.3f}", f"{100 * seconds / total:5.1f}%")
                    for stage, seconds in report.stage_timings
                ],
                title="stage timings",
            )
        )
    counters = dict(report.metrics.get("counters", {}))
    gauges = dict(report.metrics.get("gauges", {}))
    if counters or gauges:
        rows: list[tuple[str, str, object]] = [
            ("counter", name, value) for name, value in sorted(counters.items())
        ] + [
            ("gauge", name, f"{value:.4g}")
            for name, value in sorted(gauges.items())
        ]
        blocks.append(format_table(["kind", "metric", "value"], rows, title="metrics"))
    histograms = report.metrics.get("histograms", {})
    if histograms:
        blocks.append(
            format_table(
                ["histogram", "count", "mean s", "max bucket"],
                [
                    (
                        name,
                        data["count"],
                        f"{(data['sum'] / data['count']) if data['count'] else 0:.4f}",
                        _top_bucket(data),
                    )
                    for name, data in sorted(histograms.items())
                ],
                title="latency histograms",
            )
        )
    if report.caches:
        rows = []
        for layer, info in sorted(report.caches.items()):
            for key, value in sorted(info.items()):
                rows.append((layer, key, value))
        blocks.append(format_table(["cache", "stat", "value"], rows, title="caches"))
    if report.tam_utilization:
        blocks.append(
            format_table(
                ["TAM", "width", "busy", "total", "util", "wire-cycles idle"],
                [
                    (
                        t["tam"],
                        t["width"],
                        t["busy_cycles"],
                        t["total_cycles"],
                        f"{100 * t['utilization']:.1f}%",
                        t["wire_cycles_wasted"],
                    )
                    for t in report.tam_utilization
                ],
                title="TAM utilization",
            )
        )
    return "\n\n".join(blocks)


def _top_bucket(data: Mapping[str, Any]) -> str:
    """Upper boundary of the highest non-empty bucket, for the summary."""
    boundaries = list(data["boundaries"])
    counts = list(data["counts"])
    for index in range(len(counts) - 1, -1, -1):
        if counts[index]:
            if index >= len(boundaries):
                return f">{boundaries[-1]:g}s"
            return f"<={boundaries[index]:g}s"
    return "-"
