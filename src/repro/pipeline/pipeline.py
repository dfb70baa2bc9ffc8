"""The staged pipeline driving one co-optimization run.

A :class:`Pipeline` is an ordered list of
:class:`~repro.pipeline.stages.Stage` objects sharing a
:class:`~repro.pipeline.stages.PlanContext`.  :meth:`Pipeline.run`
brackets every stage with start/end events, collects per-stage wall
clock, and folds the final context into a
:class:`~repro.pipeline.result.PlanResult`.

:func:`plan` is the one entry point: :func:`pipeline_for` routes a
:class:`~repro.pipeline.config.RunConfig` to the matching built-in
flavor (standard / constrained / per-TAM, or an explicit stage pair)
and :func:`plan` runs it.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Sequence

from repro import obs
from repro.pipeline.config import RunConfig
from repro.pipeline.events import EventRecorder, EventSink, RunEvent
from repro.pipeline.result import PlanResult
from repro.pipeline.stages import (
    DecompressorStage,
    PlanContext,
    Stage,
    WrapperStage,
    stage_factory,
)
from repro.soc.soc import Soc


class Pipeline:
    """An ordered sequence of stages producing a :class:`PlanResult`."""

    def __init__(self, stages: Sequence[Stage], *, name: str = "pipeline") -> None:
        if not stages:
            raise ValueError("a pipeline needs at least one stage")
        self.stages = tuple(stages)
        self.name = name

    @classmethod
    def from_registry(
        cls,
        architecture: str,
        schedule: str,
        *,
        name: str | None = None,
    ) -> "Pipeline":
        """Assemble wrapper + decompressor + registered step-3/4 stages."""
        return cls(
            [
                WrapperStage(),
                DecompressorStage(),
                stage_factory("architecture", architecture)(),
                stage_factory("schedule", schedule)(),
            ],
            name=name or f"{architecture}+{schedule}",
        )

    # ------------------------------------------------------------------

    def run(
        self,
        soc: Soc,
        width_budget: int,
        config: RunConfig | None = None,
        *,
        events: EventSink | Iterable[EventSink] | None = None,
    ) -> PlanResult:
        """Execute the stages and fold the context into a result.

        ``events`` is an optional sink (or iterable of sinks) receiving
        every :class:`~repro.pipeline.events.RunEvent` of the run live;
        the same stream also goes to the ``repro.pipeline`` logger.
        """
        if events is None:
            sinks: tuple[EventSink, ...] = ()
        elif callable(events):
            sinks = (events,)
        else:
            sinks = tuple(events)
        # Bridge the event stream into the trace so there is ONE
        # timeline: stage brackets become spans (below); every other
        # event kind lands as an instant marker inside its span.
        active = obs.current()
        if active is not None:
            sinks = sinks + (_event_bridge(active),)
        config = config if config is not None else RunConfig()
        recorder = EventRecorder(*sinks)
        with obs.span(
            f"pipeline/{self.name}",
            soc=soc.name,
            width_budget=width_budget,
            compression=config.compression,
        ):
            recorder.emit(
                "run-start",
                pipeline=self.name,
                soc=soc.name,
                width_budget=width_budget,
                compression=config.compression,
                stages=[stage.name for stage in self.stages],
            )
            ctx = PlanContext(soc, width_budget, config, recorder)
            for stage in self.stages:
                with recorder.stage(stage.name), obs.span(stage.name):
                    stage.run(ctx)
            if ctx.architecture is None:
                raise RuntimeError(
                    f"pipeline {self.name!r} finished without producing an "
                    "architecture; it needs a schedule stage"
                )
            result = PlanResult(
                soc_name=soc.name,
                width_budget=width_budget,
                compression=config.compression,
                architecture=ctx.architecture,
                cpu_seconds=recorder.total_seconds,
                partitions_evaluated=ctx.partitions_evaluated,
                strategy=ctx.strategy,
                peak_power=ctx.peak_power,
                power_budget=config.power_budget,
                tam_idle_cycles=ctx.tam_idle_cycles,
                stage_timings=recorder.stage_timings(),
            )
            recorder.emit(
                "run-end",
                pipeline=self.name,
                soc=soc.name,
                test_time=result.test_time,
                seconds=result.cpu_seconds,
                partitions=result.partitions_evaluated,
                strategy=result.strategy,
            )
        if active is not None:
            from repro.obs.report import build_run_report

            active.run_count += 1
            result = dataclasses.replace(
                result,
                report=build_run_report(
                    soc_name=soc.name,
                    pipeline=self.name,
                    width_budget=width_budget,
                    compression=config.compression,
                    strategy=result.strategy,
                    partitions_evaluated=result.partitions_evaluated,
                    cpu_seconds=result.cpu_seconds,
                    architecture=result.architecture,
                    recorder=recorder,
                    obs=active,
                ),
            )
            active.last_report = result.report
        return result


#: Event kinds already represented as spans; everything else bridges
#: into the trace as an instant marker.
_BRACKET_KINDS = frozenset(
    {"run-start", "run-end", "stage-start", "stage-end"}
)


def _event_bridge(active: obs.Observability) -> EventSink:
    """A sink mirroring detail events into the active trace."""

    def bridge(event: RunEvent) -> None:
        if event.kind in _BRACKET_KINDS:
            return
        payload = {
            k: v
            for k, v in event.payload.items()
            if isinstance(v, (str, int, float, bool)) or v is None
        }
        active.tracer.instant(event.kind, **payload)

    return bridge


#: The built-in flavors, by their step-3/4 stage pair.  The name labels
#: the run's span and its RunReport; any other pair is named
#: ``"architecture+schedule"``.
_FLAVORS = {
    # The paper's four-step flow (Figure 4(a)/(c), Tables 1-3).
    ("partition", "list"): "standard",
    # Exhaustive partitioning + power/precedence-aware scheduling.
    ("constrained", "constrained"): "constrained",
    # Figure 4(b): one decompressor per TAM, shared expanded width.
    ("per-tam", "per-tam"): "per-tam",
    # Box-uncertainty search, list-scheduled (robust_plan).
    ("robust", "list"): "robust",
}


def pipeline_for(
    config: RunConfig, *, architecture: Stage | None = None
) -> Pipeline:
    """The built-in pipeline flavor matching a configuration.

    ``config.compression == "per-tam"`` selects the per-TAM flavor, a
    power budget, power table or precedence the constrained one, and
    anything else the standard one.  ``config.architecture`` /
    ``config.schedule`` (when not ``"auto"``) select registered
    step-3/4 stages explicitly, overriding that routing (the packing
    flow is ``architecture="packing", schedule="packing"``);
    ``architecture`` stands in for the registry's step-3 stage.
    ``config.verify`` appends the registered verify stage.

    Refused with ``ValueError`` before anything is planned: a packing,
    constrained or per-TAM stage selected without its partner, a power
    budget or precedence outside the constrained pair (every other
    schedule ignores them), and ``per-tam`` compression outside the
    per-TAM pair (every other stage reads the per-core tables).
    """
    if config.architecture != "auto" or config.schedule != "auto":
        for name in ("packing", "constrained", "per-tam"):
            if (config.architecture == name) != (config.schedule == name):
                raise ValueError(
                    f"the {name} architecture and schedule stages must be "
                    "selected together (the schedule stage lays out what "
                    "only its own architecture stage searched)"
                )
        stages = (
            config.architecture if config.architecture != "auto" else "partition",
            config.schedule if config.schedule != "auto" else "list",
        )
    elif config.compression == "per-tam":
        stages = ("per-tam", "per-tam")
    elif config.is_constrained:
        stages = ("constrained", "constrained")
    else:
        stages = ("partition", "list")
    name = _FLAVORS.get(stages, "+".join(stages))
    constrained = config.power_budget is not None or config.precedence
    if constrained and stages != ("constrained", "constrained"):
        raise ValueError(
            f"the {name} flow does not honour a power budget or precedence; "
            "plan them with the constrained architecture and schedule stages"
        )
    if config.compression == "per-tam" and stages != ("per-tam", "per-tam"):
        raise ValueError(
            f"compression 'per-tam' needs the per-tam architecture and "
            f"schedule stages; the {name} flow reads per-core tables"
        )
    steps = [
        WrapperStage(),
        DecompressorStage(),
        architecture or stage_factory("architecture", stages[0])(),
        stage_factory("schedule", stages[1])(),
    ]
    if config.verify:
        steps.append(stage_factory("verify", "invariants")())
        name += "+verify"
    return Pipeline(steps, name=name)


def plan(
    soc: Soc,
    width_budget: int,
    config: RunConfig | None = None,
    *,
    events: EventSink | Iterable[EventSink] | None = None,
) -> PlanResult:
    """Plan ``soc`` under ``width_budget``: the one-call entry point."""
    config = config if config is not None else RunConfig()
    return pipeline_for(config).run(soc, width_budget, config, events=events)
