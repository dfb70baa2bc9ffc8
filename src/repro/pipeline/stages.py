"""Typed pipeline stages and the pluggable stage registry.

The paper's heuristic is a four-step flow; each step is a
:class:`Stage` mutating a shared :class:`PlanContext`:

1. :class:`WrapperStage` -- validates the width budget and builds the
   per-core analysis tables (the fan-out computes the wrapper designs
   of step 1 *and* the decompressor sweeps of step 2 in a single
   parallel/cached pass, for efficiency -- see
   :func:`repro.explore.dse.analyze_soc_cores`);
2. :class:`DecompressorStage` -- applies the compression policy,
   building the scheduling-facing
   :class:`~repro.pipeline.tables.LookupTables` (one row per core over
   every width of the budget, under a ``tables`` span) and fixing the
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
from typing import Any, Callable, Sequence

from repro import obs
from repro.core.architecture import (
    DecompressorPlacement,
    ScheduledCore,
    Tam,
    TestArchitecture,
)
from repro.core.partition import PartitionSearchResult
from repro.core.scheduler import (
    ScheduleOutcome,
    TimeFn,
    TimeTable,
    build_architecture,
    schedule_cores_indexed,
)
from repro.core.timeline import (
    ConstrainedSchedule,
    constrained_architecture,
    schedule_constrained,
)
from repro.explore.dse import CompressedPoint, CoreAnalysis
from repro.explore.selection import core_config
from repro.search import run_search
from repro.search.evaluator import ScheduleFn
from repro.pipeline.config import RunConfig
from repro.pipeline.events import EventRecorder
from repro.pipeline.tables import LookupTables
from repro.soc.soc import Soc


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
        self.placement: DecompressorPlacement = DecompressorPlacement.PER_CORE
        self.power_of: Any = None
        self.search: PartitionSearchResult | None = None
        self.partitions_evaluated: int = 0
        self.strategy: str = ""
        self.architecture: TestArchitecture | None = None
        self.peak_power: float = 0.0
        self.tam_idle_cycles: int = 0
        #: Scratch space for stage plug-ins that need to hand data to a
        #: downstream stage without claiming a dedicated field.
        self.extras: dict[str, Any] = {}


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
        ctx.names = list(ctx.soc.core_names)
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
    """Fix the compression policy, placement, and lookup tables.

    The tables are built here, eagerly, so every wrapper design and
    codeword kernel the later stages read is charged to this stage.
    """

    name = "decompressor"

    def run(self, ctx: PlanContext) -> None:
        compression = ctx.config.compression
        if compression == "per-tam":
            ctx.placement = DecompressorPlacement.PER_TAM
        elif compression == "none":
            ctx.placement = DecompressorPlacement.NONE
        else:
            ctx.placement = DecompressorPlacement.PER_CORE
        if compression != "per-tam":
            with obs.span(
                "tables", cores=len(ctx.analyses), width_budget=ctx.width_budget
            ):
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


# ---------------------------------------------------------------------------
# Step 3 variants: test-architecture design.
# ---------------------------------------------------------------------------


#: The fixed-TAM flows :class:`ArchitectureStage` searches.
FLOWS = ("standard", "constrained", "per-tam")


class ArchitectureStage(Stage):
    """Architecture search over fixed-width TAMs (the paper's step 3).

    Thin driver over :func:`repro.search.run_search`: the strategy
    names a registered backend, ``config.search_opts`` carries its
    hyperparameters, and the multi-objective backends get volume/power
    lookups wired from the same tables the scheduler uses.  The flow
    fixes what one partition costs (see :data:`FLOWS`):

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
        time_of, schedule, min_width = self._objective(ctx)
        tables = ctx.tables

        def volume_of(name: str, width: int) -> int:
            assert tables is not None
            return tables.config_of(name, width).volume

        power_map = config.power_of
        power_of = (
            (lambda name: float(power_map.get(name, 0.0)))
            if power_map is not None
            else None
        )
        with obs.span("search", strategy=strategy) as attrs:
            search = run_search(
                ctx.names,
                ctx.width_budget,
                time_of,
                max_parts=config.max_tams,
                min_width=min_width,
                strategy=strategy,
                options=config.search_options(),
                volume_of=volume_of if tables is not None else None,
                power_of=power_of,
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
    ) -> tuple[TimeFn, ScheduleFn | None, int]:
        """The flow's ``(time_of, schedule, min_width)``."""
        config = ctx.config
        if self.flow == "per-tam":
            costs = _SharedWidths(ctx.analyses, ctx.names)
            return costs.code_width_time, costs.schedule, config.min_code_width
        tables = _require_tables(ctx, self.name)
        if self.flow == "standard":
            return tables.time_of, None, config.min_tam_width
        schedule = functools.partial(_constrained_outcome, ctx)
        return tables.time_of, schedule, config.min_tam_width


def _power_of(ctx: PlanContext) -> Any:
    """The run's power table, worked out once and kept on the context.

    The config's own table, else -- when only a budget is set -- the
    power model's table for the SOC.  :class:`VerifyStage` checks the
    plan against the same table.
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
    ctx: PlanContext, widths: Sequence[int]
) -> ConstrainedSchedule:
    """The power/precedence schedule of one partition of this run."""
    config = ctx.config
    return schedule_constrained(
        ctx.names,
        widths,
        _require_tables(ctx, "constrained").time_of,
        power_of=_power_of(ctx),
        power_budget=config.power_budget,
        precedence=config.precedence,
    )


def _constrained_outcome(
    ctx: PlanContext, table: TimeTable, widths: tuple[int, ...]
) -> ScheduleOutcome:
    """The constrained flow's search objective (``table`` goes unused)."""
    schedule = _schedule_constrained(ctx, widths)
    tam_of = {segment.name: segment.tam for segment in schedule.segments}
    return ScheduleOutcome(
        widths=schedule.widths,
        makespan=schedule.makespan,
        assignment=tuple(tam_of[name] for name in ctx.names),
    )


class _SharedWidths:
    """Figure 4(b) costs: one decompressor, one expanded width per TAM.

    A partition is list-scheduled on each core's best time at its TAM's
    code width.  Each TAM then fixes one shared expanded width m from
    its members' favorite m values, and every member is re-costed at
    it.  Every partition asks again about the same (core, width) and
    (core, m) pairs; each is answered once per instance.
    """

    def __init__(
        self, analyses: dict[str, CoreAnalysis], names: Sequence[str]
    ) -> None:
        self.analyses = analyses
        self.names = list(names)
        self.code_width_time = functools.cache(self._code_width_time)
        self.shared_m_time = functools.cache(self._shared_m_time)
        self._favorite_m = functools.cache(self._favorite)

    def _code_width_time(self, name: str, w: int) -> int:
        analysis = self.analyses[name]
        best = analysis.best_for_code_width(w) or analysis.best_compressed_for_tam(w)
        if best is None:
            return analysis.uncompressed_point(w).test_time
        return best.test_time

    def _favorite(self, name: str, w: int) -> int | None:
        best = self.analyses[name].best_for_code_width(w)
        return None if best is None else best.m

    def _shared_m_time(self, name: str, shared_m: int) -> int:
        return self.point(name, shared_m).test_time

    def point(self, name: str, shared_m: int) -> CompressedPoint:
        """The core's design point when its TAM expands to ``shared_m``.

        The core can only use as many wrapper chains as it has scanned
        elements; surplus decompressor outputs idle.
        """
        analysis = self.analyses[name]
        m = min(shared_m, analysis.core.max_useful_wrapper_chains)
        return analysis.compressed_point(m)

    def shared_ms(
        self, widths: Sequence[int], assignment: Sequence[int]
    ) -> tuple[list[int], list[int]]:
        """Each TAM's shared m and its members' summed time at it.

        An empty TAM gets m = 1 and load 0.  Otherwise the m is the
        members' favorite (or, when none has one, their smallest useful
        chain count) with the least summed time.
        """
        shared: list[int] = []
        loads: list[int] = []
        for tam, w in enumerate(widths):
            members = [
                self.names[i] for i, t in enumerate(assignment) if t == tam
            ]
            if not members:
                shared.append(1)
                loads.append(0)
                continue
            favorites = (self._favorite_m(name, w) for name in members)
            candidates = {m for m in favorites if m is not None}
            if not candidates:
                candidates = {
                    min(
                        self.analyses[name].core.max_useful_wrapper_chains
                        for name in members
                    )
                }
            best_m, best_load = None, None
            for m in sorted(candidates):
                load = sum(self.shared_m_time(name, m) for name in members)
                if best_load is None or load < best_load:
                    best_m, best_load = m, load
            assert best_m is not None and best_load is not None
            shared.append(best_m)
            loads.append(best_load)
        return shared, loads

    def schedule(
        self, table: TimeTable, widths: tuple[int, ...]
    ) -> ScheduleOutcome:
        """The search objective: list schedule, then the shared-m re-cost."""
        outcome = schedule_cores_indexed(table, widths)
        _, loads = self.shared_ms(widths, outcome.assignment)
        return ScheduleOutcome(
            widths=outcome.widths,
            makespan=max(loads),
            assignment=outcome.assignment,
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
            tables.time_of,
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
        ctx.extras["robust_plan"] = robust
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


class ScheduleStage(Stage):
    """Lay out the searched partition as a :class:`TestArchitecture`."""

    name = "schedule"

    def run(self, ctx: PlanContext) -> None:
        search = _require_search(ctx, self.name)
        tables = _require_tables(ctx, self.name)
        with obs.span("place-cores", cores=len(ctx.names)):
            ctx.architecture = build_architecture(
                ctx.soc.name,
                ctx.names,
                search.outcome,
                tables.config_of,
                placement=ctx.placement,
                ate_channels=ctx.width_budget,
                time_of=tables.time_of,
            )
        obs.inc("schedule.cores_scheduled", len(ctx.architecture.scheduled))
        ctx.events.emit(
            "scheduled",
            self.name,
            test_time=ctx.architecture.test_time,
            tams=len(ctx.architecture.tams),
        )


class ConstrainedScheduleStage(Stage):
    """Materialize the constrained schedule (may include TAM idle time).

    The search kept only the winning partition; its timeline schedule is
    rebuilt here and handed to :class:`VerifyStage`.
    """

    name = "schedule"

    def run(self, ctx: PlanContext) -> None:
        search = _require_search(ctx, self.name)
        tables = _require_tables(ctx, self.name)
        best = _schedule_constrained(ctx, search.widths)
        ctx.extras["constrained_schedule"] = best
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


class PerTamScheduleStage(Stage):
    """Materialize the per-TAM plan with shared expanded widths."""

    name = "schedule"

    def run(self, ctx: PlanContext) -> None:
        outcome = _require_search(ctx, self.name).outcome
        widths, assignment = outcome.widths, outcome.assignment
        names = ctx.names
        costs = _SharedWidths(ctx.analyses, names)
        shared_ms, _ = costs.shared_ms(widths, assignment)

        tams = tuple(
            Tam(index=i, width=max(1, shared_ms[i])) for i in range(len(widths))
        )
        loads = [0] * len(widths)
        order = sorted(
            range(len(names)),
            key=lambda i: (
                -costs.shared_m_time(names[i], shared_ms[assignment[i]]),
                names[i],
            ),
        )
        scheduled = []
        for index in order:
            name = names[index]
            tam = assignment[index]
            point = costs.point(name, shared_ms[tam])
            config = core_config(ctx.analyses[name].core, point)
            start = loads[tam]
            end = start + config.test_time
            loads[tam] = end
            scheduled.append(
                ScheduledCore(config=config, tam_index=tam, start=start, end=end)
            )
        ctx.architecture = TestArchitecture(
            soc_name=ctx.soc.name,
            placement=DecompressorPlacement.PER_TAM,
            tams=tams,
            scheduled=tuple(scheduled),
            ate_channels=ctx.width_budget,
        )
        ctx.events.emit(
            "scheduled",
            self.name,
            test_time=ctx.architecture.test_time,
            tams=len(tams),
        )


# ---------------------------------------------------------------------------
# Optional final stage: independent plan verification.
# ---------------------------------------------------------------------------


class VerifyStage(Stage):
    """Re-check the finished plan against the paper's models.

    Opt-in via ``RunConfig(verify=True)`` (or ``--verify`` on the CLI);
    the planning service always appends it.  Runs the independent
    invariant checker of :mod:`repro.verify` over the materialized
    architecture -- and, for constrained runs, over the timeline
    schedule -- and raises
    :class:`~repro.verify.invariants.PlanVerificationError` instead of
    letting an invalid plan escape the pipeline.
    """

    name = "verify"

    def run(self, ctx: PlanContext) -> None:
        # Imported here: repro.verify depends on this package's config.
        from repro.verify import (
            verify_architecture,
            verify_constrained,
            verify_packed,
        )

        config = ctx.config
        if ctx.architecture is None:
            raise RuntimeError(
                "VerifyStage needs a materialized architecture; run it "
                "after the schedule stage"
            )
        packed_plan = ctx.extras.get("packed_plan")
        reports = [
            verify_architecture(
                ctx.architecture,
                soc=ctx.soc,
                config=config,
                analyses=ctx.analyses or None,
                power_of=ctx.power_of,
                power_budget=config.power_budget,
                stated_peak=ctx.peak_power if ctx.power_of is not None else None,
                precedence=config.precedence,
                packed=packed_plan is not None,
            )
        ]
        schedule = ctx.extras.get("constrained_schedule")
        if schedule is not None and ctx.tables is not None:
            reports.append(
                verify_constrained(
                    schedule,
                    ctx.names,
                    ctx.tables.time_of,
                    power_of=ctx.power_of,
                    power_budget=config.power_budget,
                    precedence=config.precedence,
                )
            )
        if packed_plan is not None and ctx.tables is not None:
            reports.append(
                verify_packed(packed_plan, ctx.names, ctx.tables.time_of)
            )
        violations = sum(len(r.violations) for r in reports)
        obs.inc("verify.runs")
        if violations:
            obs.inc("verify.violations", violations)
        ctx.extras["verification"] = tuple(reports)
        ctx.events.emit(
            "verified",
            self.name,
            checks=sum(len(r.checks) for r in reports),
            violations=violations,
        )
        for report in reports:
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
