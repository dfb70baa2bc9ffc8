"""Typed pipeline stages and the pluggable stage registry.

The paper's heuristic is a four-step flow; each step is a
:class:`Stage` mutating a shared :class:`PlanContext`:

1. :class:`WrapperStage` -- validates the width budget and builds the
   per-core analysis tables (the fan-out computes the wrapper designs
   of step 1 *and* the decompressor sweeps of step 2 in a single
   parallel/cached pass, for efficiency -- see
   :func:`repro.explore.dse.analyze_soc_cores`);
2. :class:`DecompressorStage` -- applies the compression policy,
   building the plan's cost tables under a ``tables`` span -- the
   :class:`~repro.pipeline.tables.LookupTables` (one row per core over
   every width of the budget), or for ``per-tam`` the
   :class:`~repro.pipeline.tables.SharedWidthTables` -- and fixing the
   decompressor placement;
3. an **architecture** stage -- chooses the TAM partition and the
   core assignment: the paper's step 3.  :class:`ArchitectureStage`
   searches every fixed-TAM flow (standard, power-constrained and
   per-TAM) through :func:`repro.search.run_search`, costing each
   partition by that flow's step-4 schedule;
4. a **schedule** stage -- materializes the winning partition's
   schedule as a :class:`~repro.core.architecture.TestArchitecture`
   from ``ctx.search``: step 4.

Architecture and schedule stages are pluggable through a registry
(:func:`register_stage` / :func:`stage_factory`), so alternative
partitioners and schedulers -- the :mod:`repro.search` backends, the
robust search in :mod:`repro.core.robust`, the rectangle packer in
:mod:`repro.pack` -- drop in as stages instead of forking the whole
flow.
"""

from __future__ import annotations

import abc
import functools
from typing import TYPE_CHECKING, Any, Callable

from repro import obs
from repro.core.architecture import DecompressorPlacement, TestArchitecture
from repro.core.partition import PartitionSearchResult
from repro.core.scheduler import (
    ConfigFn,
    ScheduleOutcome,
    TimeFn,
    TimeTable,
    build_architecture,
)
from repro.core.timeline import (
    ConstrainedSchedule,
    constrained_architecture,
    core_powers,
    power_steps,
    schedule_constrained,
)
from repro.explore.dse import CoreAnalysis
from repro.explore.selection import core_config
from repro.search import resolve_search_space, run_search
from repro.search.evaluator import ScheduleFn
from repro.pipeline.config import RunConfig
from repro.pipeline.events import EventRecorder
from repro.pipeline.tables import LookupTables, SharedWidthTables
from repro.soc.soc import Soc

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pack.packer import PackedPlan


class PlanContext:
    """Mutable state threaded through the stages of one run."""

    def __init__(
        self,
        soc: Soc,
        width_budget: int,
        config: RunConfig,
        events: EventRecorder,
    ) -> None:
        self.soc = soc
        self.width_budget = width_budget
        self.config = config
        self.events = events
        self.names: list[str] = []
        self.analyses: dict[str, CoreAnalysis] = {}
        self.tables: LookupTables | None = None
        self.shared_widths: SharedWidthTables | None = None
        self.placement: DecompressorPlacement = DecompressorPlacement.PER_CORE
        self.power_of: Any = None
        self.search: PartitionSearchResult | None = None
        self.partitions_evaluated: int = 0
        self.strategy: str = ""
        #: The packing flow's rectangles, from its architecture stage to
        #: its schedule stage.
        self.packed: PackedPlan | None = None
        self.architecture: TestArchitecture | None = None
        self.peak_power: float = 0.0
        self.tam_idle_cycles: int = 0


class Stage(abc.ABC):
    """One step of the pipeline; mutates the :class:`PlanContext`."""

    #: Display name used for events and stage timings.
    name: str = "stage"

    @abc.abstractmethod
    def run(self, ctx: PlanContext) -> None:
        """Execute the stage against the shared context."""


# ---------------------------------------------------------------------------
# Steps 1-2: wrapper + decompressor design (the analysis side).
# ---------------------------------------------------------------------------


class WrapperStage(Stage):
    """Validate the budget and build the per-core analysis tables."""

    name = "wrapper"

    def run(self, ctx: PlanContext) -> None:
        config = ctx.config
        if config.compression == "per-tam":
            if ctx.width_budget < config.min_code_width:
                raise ValueError(
                    f"ATE channels ({ctx.width_budget}) below minimum code "
                    f"width ({config.min_code_width})"
                )
        elif ctx.width_budget < 1:
            raise ValueError(
                f"TAM width must be >= 1, got {ctx.width_budget}"
            )
        ctx.names = [core.name for core in ctx.soc.cores]
        cache = config.resolve_cache()
        before = cache.stats() if cache is not None else None
        ctx.analyses = config.analyses(
            ctx.soc.cores, max_tam_width=ctx.width_budget, cache=cache
        )
        if cache is not None and before is not None:
            after = cache.stats()
            ctx.events.emit(
                "cache-stats",
                self.name,
                directory=after.directory,
                hits=after.hits - before.hits,
                misses=after.misses - before.misses,
                stores=after.stores - before.stores,
                corrupt=after.corrupt - before.corrupt,
            )
        ctx.events.emit(
            "analyses-ready",
            self.name,
            cores=len(ctx.names),
            jobs=config.resolve_jobs(),
            cached=cache is not None,
        )


class DecompressorStage(Stage):
    """Fix the compression policy, placement, and cost tables.

    The tables are built here, eagerly, so every wrapper design and
    codeword kernel the later stages read is charged to this stage.
    """

    name = "decompressor"

    def run(self, ctx: PlanContext) -> None:
        config = ctx.config
        compression = config.compression
        if compression == "per-tam":
            ctx.placement = DecompressorPlacement.PER_TAM
        elif compression == "none":
            ctx.placement = DecompressorPlacement.NONE
        else:
            ctx.placement = DecompressorPlacement.PER_CORE
        with obs.span(
            "tables", cores=len(ctx.analyses), width_budget=ctx.width_budget
        ):
            if "per-tam" in (compression, config.architecture):
                space = resolve_search_space(
                    len(ctx.names),
                    ctx.width_budget,
                    max_parts=config.max_tams,
                    min_width=config.min_code_width,
                )
                ctx.shared_widths = SharedWidthTables(ctx.analyses, space)
            else:
                ctx.tables = LookupTables(
                    ctx.analyses, compression, ctx.width_budget
                )
        ctx.events.emit(
            "tables-ready",
            self.name,
            compression=compression,
            placement=ctx.placement.value,
        )


def _require_tables(ctx: PlanContext, stage: str) -> LookupTables:
    if ctx.tables is None:
        raise RuntimeError(
            f"stage {stage!r} needs lookup tables; run DecompressorStage first"
        )
    return ctx.tables


def _require_shared_widths(ctx: PlanContext, stage: str) -> SharedWidthTables:
    if ctx.shared_widths is None:
        raise RuntimeError(
            f"stage {stage!r} needs the per-TAM tables; run DecompressorStage first"
        )
    return ctx.shared_widths


# ---------------------------------------------------------------------------
# Step 3 variants: test-architecture design.
# ---------------------------------------------------------------------------


#: The fixed-TAM flows :class:`ArchitectureStage` searches.
FLOWS = ("standard", "constrained", "per-tam")


class ArchitectureStage(Stage):
    """Architecture search over fixed-width TAMs (the paper's step 3).

    Thin driver over :func:`repro.search.run_search`: the strategy
    names a registered backend, ``config.search_opts`` carries its
    hyperparameters, and the multi-objective backends get the volume
    rows of the same tables the scheduler reads, and the config's power
    map.  The flow fixes what one partition costs (see :data:`FLOWS`):

    * ``standard`` -- the lookup tables' times under the paper's list
      heuristic;
    * ``constrained`` -- the same times under
      :func:`~repro.core.timeline.schedule_constrained` with the
      config's power table, budget and precedence;
    * ``per-tam`` -- Figure 4(b): each core's best time at its TAM's
      code width, list-scheduled, then re-costed at every TAM's shared
      expanded width.

    The last two cost whole partitions, so a backend that costs
    explicit assignments (``anneal``, ``evolutionary``) fails on them
    (see :meth:`~repro.search.evaluator.Evaluator.makespan_of`).
    """

    name = "architecture"

    def __init__(
        self, strategy: str | None = None, flow: str = "standard"
    ) -> None:
        if flow not in FLOWS:
            raise ValueError(
                f"unknown flow {flow!r}; expected one of {', '.join(FLOWS)}"
            )
        #: When set, overrides ``config.strategy`` (the registry uses
        #: this to expose "exhaustive"/"greedy"/"anneal"/"evolutionary"
        #: as stages).
        self.strategy = strategy
        self.flow = flow

    def run(self, ctx: PlanContext) -> None:
        config = ctx.config
        strategy = self.strategy or config.strategy
        times, schedule, min_width = self._objective(ctx)
        with obs.span("search", strategy=strategy) as attrs:
            search = run_search(
                ctx.names,
                ctx.width_budget,
                times,
                max_parts=config.max_tams,
                min_width=min_width,
                strategy=strategy,
                options=config.search_options(),
                volume_of=ctx.tables.volumes if ctx.tables is not None else None,
                power_of=config.power_of,
                schedule=schedule,
            )
            attrs["partitions"] = search.partitions_evaluated
            attrs["backend"] = search.strategy
        obs.inc("architecture.partitions_evaluated", search.partitions_evaluated)
        ctx.search = search
        ctx.partitions_evaluated = search.partitions_evaluated
        ctx.strategy = search.strategy
        ctx.events.emit(
            "search-done",
            self.name,
            strategy=search.strategy,
            partitions=search.partitions_evaluated,
            widths=list(search.widths),
            makespan=search.makespan,
        )

    def _objective(
        self, ctx: PlanContext
    ) -> tuple[TimeTable, ScheduleFn | None, int]:
        """The flow's ``(times, schedule, min_width)``."""
        config = ctx.config
        if self.flow == "per-tam":
            shared = _require_shared_widths(ctx, self.name)
            return shared.times, shared.schedule, config.min_code_width
        tables = _require_tables(ctx, self.name)
        if self.flow == "standard":
            return tables.times, None, config.min_tam_width
        schedule = functools.partial(_constrained_outcome, ctx)
        return tables.times, schedule, config.min_tam_width


def _power_of(ctx: PlanContext) -> Any:
    """The run's power table, worked out once and kept on the context.

    The config's own table, else -- when only a budget is set -- the
    power model's table for the SOC: the table
    :func:`~repro.verify.verify_architecture` checks the plan against.
    """
    config = ctx.config
    if ctx.power_of is None:
        ctx.power_of = config.power_of
        if config.power_budget is not None and ctx.power_of is None:
            from repro.power.model import power_table

            ctx.power_of = power_table(
                ctx.soc, compression=config.compression != "none"
            )
    return ctx.power_of


def _schedule_constrained(
    ctx: PlanContext, table: TimeTable, widths: tuple[int, ...]
) -> ConstrainedSchedule:
    """The power/precedence schedule of one partition of this run."""
    config = ctx.config
    return schedule_constrained(
        ctx.names,
        widths,
        table,
        power_of=_power_of(ctx),
        power_budget=config.power_budget,
        precedence=config.precedence,
    )


def _constrained_outcome(
    ctx: PlanContext, table: TimeTable, widths: tuple[int, ...]
) -> ScheduleOutcome:
    """The constrained flow's search objective."""
    schedule = _schedule_constrained(ctx, table, widths)
    tam_of = {segment.name: segment.tam for segment in schedule.segments}
    return ScheduleOutcome(
        widths=schedule.widths,
        makespan=schedule.makespan,
        assignment=tuple(tam_of[name] for name in ctx.names),
    )


class RobustArchitectureStage(Stage):
    """Box-uncertainty surrogate: optimize against inflated times."""

    name = "architecture"

    def __init__(self, epsilon: float = 0.1) -> None:
        self.epsilon = epsilon

    def run(self, ctx: PlanContext) -> None:
        from repro.core.robust import robust_search

        config = ctx.config
        tables = _require_tables(ctx, self.name)
        robust = robust_search(
            ctx.names,
            ctx.width_budget,
            tables.times,
            epsilon=self.epsilon,
            max_parts=config.max_tams,
            min_width=config.min_tam_width,
            strategy=config.strategy,
            options=config.search_options(),
        )
        obs.inc(
            "architecture.partitions_evaluated",
            robust.search.partitions_evaluated,
        )
        ctx.search = robust.search
        ctx.partitions_evaluated = robust.search.partitions_evaluated
        ctx.strategy = f"robust-{robust.search.strategy}"
        ctx.events.emit(
            "search-done",
            self.name,
            strategy=ctx.strategy,
            partitions=ctx.partitions_evaluated,
            widths=list(robust.widths),
            nominal_makespan=robust.nominal_makespan,
            worst_case_makespan=robust.worst_case_makespan,
            epsilon=self.epsilon,
        )


# ---------------------------------------------------------------------------
# Step 4 variants: schedule materialization.
# ---------------------------------------------------------------------------


def _require_search(ctx: PlanContext, stage: str) -> PartitionSearchResult:
    if ctx.search is None:
        raise RuntimeError(
            f"stage {stage!r} needs a partition search result; run an "
            "architecture stage first"
        )
    return ctx.search


def _peak_power(architecture: TestArchitecture, config: RunConfig) -> float:
    """The laid-out plan's peak under the config's power map (0 without)."""
    if config.power_of is None:
        return 0.0
    slots = architecture.scheduled
    powers = core_powers([s.config.core_name for s in slots], config.power_of)
    spans = [(s.start, s.end, p) for s, p in zip(slots, powers)]
    return max(level for _, level in power_steps(spans))


#: An outcome to lay out, with its configurations, times and placement.
_Layout = tuple[ScheduleOutcome, ConfigFn, TimeTable | TimeFn, DecompressorPlacement]


class ScheduleStage(Stage):
    """Lay out the searched partition as a :class:`TestArchitecture`."""

    name = "schedule"

    def run(self, ctx: PlanContext) -> None:
        outcome = _require_search(ctx, self.name).outcome
        outcome, config_of, times, placement = self._layout(ctx, outcome)
        with obs.span("place-cores", cores=len(ctx.names)):
            ctx.architecture = build_architecture(
                ctx.soc.name,
                ctx.names,
                outcome,
                config_of,
                placement=placement,
                ate_channels=ctx.width_budget,
                time_of=times,
            )
        ctx.peak_power = _peak_power(ctx.architecture, ctx.config)
        obs.inc("schedule.cores_scheduled", len(ctx.architecture.scheduled))
        ctx.events.emit(
            "scheduled",
            self.name,
            test_time=ctx.architecture.test_time,
            tams=len(ctx.architecture.tams),
        )

    def _layout(self, ctx: PlanContext, outcome: ScheduleOutcome) -> _Layout:
        """What :func:`build_architecture` lays out, and from which rows."""
        tables = _require_tables(ctx, self.name)
        return outcome, tables.config_of, tables.times, ctx.placement


class ConstrainedScheduleStage(Stage):
    """Materialize the constrained schedule (may include TAM idle time).

    The search kept only the winning partition; its schedule is rebuilt.
    """

    name = "schedule"

    def run(self, ctx: PlanContext) -> None:
        search = _require_search(ctx, self.name)
        tables = _require_tables(ctx, self.name)
        best = _schedule_constrained(ctx, tables.times, search.widths)
        ctx.architecture = constrained_architecture(
            ctx.soc.name,
            best,
            tables.config_of,
            placement=ctx.placement,
            ate_channels=ctx.width_budget,
        )
        ctx.peak_power = best.peak_power
        ctx.tam_idle_cycles = best.tam_idle_cycles
        ctx.events.emit(
            "scheduled",
            self.name,
            test_time=ctx.architecture.test_time,
            peak_power=best.peak_power,
            tam_idle_cycles=best.tam_idle_cycles,
        )


class PerTamScheduleStage(ScheduleStage):
    """Lay out the per-TAM plan, each TAM at its shared expanded width."""

    def _layout(self, ctx: PlanContext, outcome: ScheduleOutcome) -> _Layout:
        shared = _require_shared_widths(ctx, self.name)
        shared_ms, loads = shared.shared_ms(outcome.widths, outcome.assignment)
        # A core runs at its own TAM's shared m: one point per core,
        # whatever TAM width the layout asks about.
        points = {
            name: shared.point(index, shared_ms[tam])
            for index, (name, tam) in enumerate(zip(ctx.names, outcome.assignment))
        }
        cores = dict(zip(ctx.names, shared.cores))
        return (
            ScheduleOutcome(tuple(shared_ms), max(loads), outcome.assignment),
            lambda name, _m: core_config(cores[name], points[name]),
            lambda name, _m: points[name].test_time,
            DecompressorPlacement.PER_TAM,
        )


# ---------------------------------------------------------------------------
# Optional final stage: independent plan verification.
# ---------------------------------------------------------------------------


class VerifyStage(Stage):
    """Re-check the finished plan against the paper's models.

    Opt-in via ``RunConfig(verify=True)`` (or ``--verify`` on the CLI);
    the planning service runs the same rules on every result.  Runs
    :func:`~repro.verify.verify_architecture` over the materialized
    architecture with the inputs :func:`~repro.verify.verify_plan`
    takes from the finished result -- its width budget, power budget and
    stated peak, and the config's power map and precedence -- and raises
    :class:`~repro.verify.invariants.PlanVerificationError` instead of
    letting an invalid plan escape the pipeline.
    """

    name = "verify"

    def run(self, ctx: PlanContext) -> None:
        # Imported here: repro.verify depends on this package's config.
        from repro.verify import verify_architecture

        config = ctx.config
        if ctx.architecture is None:
            raise RuntimeError(
                "VerifyStage needs a materialized architecture; run it "
                "after the schedule stage"
            )
        report = verify_architecture(
            ctx.architecture,
            soc=ctx.soc,
            config=config,
            analyses=ctx.analyses or None,
            width_budget=ctx.width_budget,
            power_budget=config.power_budget,
            stated_peak=ctx.peak_power,
        )
        obs.inc("verify.runs")
        if report.violations:
            obs.inc("verify.violations", len(report.violations))
        ctx.events.emit(
            "verified",
            self.name,
            checks=len(report.checks),
            violations=len(report.violations),
        )
        report.raise_if_violations()


# ---------------------------------------------------------------------------
# Stage registry: alternative partitioners/schedulers plug in by name.
# ---------------------------------------------------------------------------

StageFactory = Callable[..., Stage]

_REGISTRY: dict[tuple[str, str], StageFactory] = {}

#: The pluggable slots: the standard four-stage flow's two open steps
#: plus the optional trailing verification slot.
STAGE_SLOTS = ("architecture", "schedule", "verify")


def register_stage(slot: str, name: str, factory: StageFactory) -> None:
    """Register a stage factory under ``(slot, name)``.

    ``slot`` is "architecture" (the paper's step 3), "schedule"
    (step 4), or "verify" (the optional post-plan checker).
    Registering an existing name replaces it, so downstream code can
    override the built-ins.
    """
    if slot not in STAGE_SLOTS:
        raise ValueError(
            f"unknown stage slot {slot!r}; expected one of {STAGE_SLOTS}"
        )
    _REGISTRY[(slot, name)] = factory


def unregister_stage(slot: str, name: str) -> None:
    """Remove a registered stage (tests use this for isolation)."""
    _REGISTRY.pop((slot, name), None)


def stage_factory(slot: str, name: str) -> StageFactory:
    """Look up a registered stage factory; raises ``KeyError`` with help."""
    try:
        return _REGISTRY[(slot, name)]
    except KeyError:
        known = sorted(n for s, n in _REGISTRY if s == slot)
        raise KeyError(
            f"no {slot} stage named {name!r}; registered: {known}"
        ) from None


def available_stages(slot: str | None = None) -> dict[str, tuple[str, ...]]:
    """Registered stage names, grouped by slot."""
    slots = (slot,) if slot is not None else STAGE_SLOTS
    return {
        s: tuple(sorted(n for (slot_, n) in _REGISTRY if slot_ == s))
        for s in slots
    }


register_stage("architecture", "partition", ArchitectureStage)
register_stage(
    "architecture", "exhaustive", lambda: ArchitectureStage(strategy="exhaustive")
)
register_stage(
    "architecture", "greedy", lambda: ArchitectureStage(strategy="greedy")
)
register_stage(
    "architecture", "anneal", lambda: ArchitectureStage(strategy="anneal")
)
register_stage(
    "architecture",
    "evolutionary",
    lambda: ArchitectureStage(strategy="evolutionary"),
)
register_stage(
    "architecture", "constrained", lambda: ArchitectureStage(flow="constrained")
)
register_stage("architecture", "per-tam", lambda: ArchitectureStage(flow="per-tam"))
register_stage("architecture", "robust", RobustArchitectureStage)
register_stage("schedule", "list", ScheduleStage)
register_stage("schedule", "constrained", ConstrainedScheduleStage)
register_stage("schedule", "per-tam", PerTamScheduleStage)
register_stage("verify", "invariants", VerifyStage)


def _packing_architecture_stage(*args: Any, **kwargs: Any) -> Stage:
    # Lazy import: repro.pack.stages subclasses this module's Stage, so
    # a top-level import either way would be circular at load time.
    from repro.pack.stages import PackingArchitectureStage

    return PackingArchitectureStage(*args, **kwargs)


def _packing_schedule_stage(*args: Any, **kwargs: Any) -> Stage:
    from repro.pack.stages import PackingScheduleStage

    return PackingScheduleStage(*args, **kwargs)


register_stage("architecture", "packing", _packing_architecture_stage)
register_stage("schedule", "packing", _packing_schedule_stage)
