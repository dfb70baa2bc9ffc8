"""JSON export/import of planned architectures and results.

A planned :class:`~repro.core.architecture.TestArchitecture` is the
hand-off artifact to downstream DFT tooling (wrapper insertion, TAM
routing, ATE program generation), so it needs a stable serialized form.
The schema is versioned; :func:`architecture_from_json` refuses schemas
it does not understand.

A full :class:`~repro.pipeline.result.PlanResult` (architecture plus
run provenance: compression mode, search statistics, constraint
bookkeeping, per-stage timings) round-trips losslessly through
:func:`result_to_json` / :func:`result_from_json` -- ``load(dump(r))``
compares equal to ``r``.
"""

from __future__ import annotations

import json
from typing import Any

from repro.core.architecture import (
    CoreConfig,
    DecompressorPlacement,
    ScheduledCore,
    Tam,
    TestArchitecture,
)
from repro.pipeline.result import PlanResult

SCHEMA_VERSION = 1


def architecture_to_dict(
    architecture: TestArchitecture, *, sort_schedule: bool = True
) -> dict[str, Any]:
    """Serialize an architecture to plain JSON-ready data.

    ``sort_schedule`` orders the schedule by (TAM, start) for human
    diffing -- the default for standalone exports.  Pass ``False`` to
    keep the scheduler's own placement order, which the lossless
    :func:`result_to_dict` round trip requires
    (:class:`TestArchitecture` equality is order-sensitive).
    """
    scheduled: Any = architecture.scheduled
    if sort_schedule:
        scheduled = sorted(scheduled, key=lambda s: (s.tam_index, s.start))
    # Keys a plan leaves unset are not written: older exports still match.
    extra = {"ate_cycles": architecture.ate_cycles} if architecture.ate_cycles else {}
    return {
        "schema": SCHEMA_VERSION,
        "soc": architecture.soc_name,
        "placement": architecture.placement.value,
        "ate_channels": architecture.ate_channels,
        **extra,
        "test_time": architecture.test_time,
        "test_data_volume": architecture.test_data_volume,
        "tams": [
            {"index": t.index, "width": t.width}
            | ({} if t.offset is None else {"offset": t.offset})
            for t in architecture.tams
        ],
        "schedule": [
            {
                "core": s.config.core_name,
                "tam": s.tam_index,
                "start": s.start,
                "end": s.end,
                "compressed": s.config.uses_compression,
                "technique": s.config.technique,
                "wrapper_chains": s.config.wrapper_chains,
                "code_width": s.config.code_width,
                "test_time": s.config.test_time,
                "volume": s.config.volume,
            }
            for s in scheduled
        ],
    }


def architecture_to_json(architecture: TestArchitecture, *, indent: int = 2) -> str:
    return json.dumps(architecture_to_dict(architecture), indent=indent)


def result_to_dict(result: PlanResult) -> dict[str, Any]:
    """Serialize a full plan result (architecture + provenance)."""
    payload = architecture_to_dict(result.architecture, sort_schedule=False)
    payload["optimizer"] = {
        "width_budget": result.width_budget,
        "compression": result.compression,
        "cpu_seconds": result.cpu_seconds,
        "partitions_evaluated": result.partitions_evaluated,
        "strategy": result.strategy,
        "peak_power": result.peak_power,
        "power_budget": result.power_budget,
        "tam_idle_cycles": result.tam_idle_cycles,
        "stage_timings": [
            {"stage": stage, "seconds": seconds}
            for stage, seconds in result.stage_timings
        ],
    }
    if result.report is not None:
        payload["report"] = result.report.to_dict()
    return payload


def result_to_json(result: PlanResult, *, indent: int = 2) -> str:
    return json.dumps(result_to_dict(result), indent=indent)


def architecture_from_dict(data: dict[str, Any]) -> TestArchitecture:
    """Rebuild an architecture from :func:`architecture_to_dict` data."""
    schema = data.get("schema")
    if schema != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema {schema!r} (this build reads {SCHEMA_VERSION})"
        )
    tams = tuple(
        Tam(index=t["index"], width=t["width"], offset=t.get("offset"))
        for t in data["tams"]
    )
    scheduled = []
    for entry in data["schedule"]:
        config = CoreConfig(
            core_name=entry["core"],
            uses_compression=entry["compressed"],
            wrapper_chains=entry["wrapper_chains"],
            code_width=entry["code_width"],
            test_time=entry["test_time"],
            volume=entry["volume"],
            technique=entry.get("technique", "auto"),
        )
        scheduled.append(
            ScheduledCore(
                config=config,
                tam_index=entry["tam"],
                start=entry["start"],
                end=entry["end"],
            )
        )
    return TestArchitecture(
        soc_name=data["soc"],
        placement=DecompressorPlacement(data["placement"]),
        tams=tams,
        scheduled=tuple(scheduled),
        ate_channels=data["ate_channels"],
        ate_cycles=data.get("ate_cycles", 0),
    )


def architecture_from_json(text: str) -> TestArchitecture:
    return architecture_from_dict(json.loads(text))


def result_from_dict(data: dict[str, Any]) -> PlanResult:
    """Rebuild a :class:`PlanResult` from :func:`result_to_dict` data."""
    optimizer = data.get("optimizer")
    if optimizer is None:
        raise ValueError(
            "payload has no 'optimizer' section; use architecture_from_dict "
            "for bare architecture exports"
        )
    report = None
    if data.get("report") is not None:
        from repro.obs.report import RunReport

        report = RunReport.from_dict(data["report"])
    return PlanResult(
        soc_name=data["soc"],
        width_budget=optimizer["width_budget"],
        compression=optimizer["compression"],
        architecture=architecture_from_dict(data),
        cpu_seconds=optimizer["cpu_seconds"],
        partitions_evaluated=optimizer["partitions_evaluated"],
        strategy=optimizer["strategy"],
        peak_power=optimizer.get("peak_power", 0.0),
        power_budget=optimizer.get("power_budget"),
        tam_idle_cycles=optimizer.get("tam_idle_cycles", 0),
        stage_timings=tuple(
            (entry["stage"], entry["seconds"])
            for entry in optimizer.get("stage_timings", ())
        ),
        report=report,
    )


def result_from_json(text: str) -> PlanResult:
    return result_from_dict(json.loads(text))


__all__ = [
    "SCHEMA_VERSION",
    "architecture_to_dict",
    "architecture_to_json",
    "architecture_from_dict",
    "architecture_from_json",
    "result_to_dict",
    "result_to_json",
    "result_from_dict",
    "result_from_json",
    "PlanResult",
]
