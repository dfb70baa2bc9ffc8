"""Staged co-optimization pipeline: config, stages, events, result.

The package unifies the repo's four-step flow (wrapper design,
decompressor design, test-architecture design, test scheduling) behind

* :class:`~repro.pipeline.config.RunConfig` -- every knob in one
  frozen value object,
* :class:`~repro.pipeline.pipeline.Pipeline` -- typed stages with a
  pluggable registry for the architecture/schedule steps,
* :class:`~repro.pipeline.result.PlanResult` -- the unified outcome
  (JSON round-trippable via :mod:`repro.reporting.export`),
* :class:`~repro.pipeline.events.RunEvent` -- the structured run-event
  stream (also mirrored to the ``repro.pipeline`` logger).

Quick start::

    from repro.pipeline import RunConfig, plan

    result = plan(soc, 32, RunConfig(compression="auto", jobs=4))
"""

from repro.pipeline.config import COMPRESSION_MODES, Compression, RunConfig
from repro.pipeline.events import LOGGER, EventRecorder, EventSink, RunEvent
from repro.pipeline.pipeline import Pipeline, pipeline_for, plan
from repro.pipeline.result import PlanResult
from repro.pipeline.stages import (
    ArchitectureStage,
    ConstrainedArchitectureStage,
    ConstrainedScheduleStage,
    DecompressorStage,
    PerTamArchitectureStage,
    PerTamScheduleStage,
    PlanContext,
    RobustArchitectureStage,
    ScheduleStage,
    Stage,
    VerifyStage,
    WrapperStage,
    available_stages,
    register_stage,
    stage_factory,
    unregister_stage,
)
from repro.pipeline.tables import LookupTables

__all__ = [
    "COMPRESSION_MODES",
    "Compression",
    "RunConfig",
    "LOGGER",
    "EventRecorder",
    "EventSink",
    "RunEvent",
    "Pipeline",
    "pipeline_for",
    "plan",
    "PlanResult",
    "ArchitectureStage",
    "ConstrainedArchitectureStage",
    "ConstrainedScheduleStage",
    "DecompressorStage",
    "PerTamArchitectureStage",
    "PerTamScheduleStage",
    "PlanContext",
    "RobustArchitectureStage",
    "ScheduleStage",
    "Stage",
    "VerifyStage",
    "WrapperStage",
    "available_stages",
    "register_stage",
    "stage_factory",
    "unregister_stage",
    "LookupTables",
]
