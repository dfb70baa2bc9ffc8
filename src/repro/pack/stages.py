"""Pipeline stages exposing the rectangle packer as step 3 + step 4.

``PackingArchitectureStage`` generates each core's rectangle family
from the rows of the cost table the list scheduler reads, packs them, and
hands the :class:`~repro.pack.packer.PackedPlan` on in ``ctx.packed``.
``PackingScheduleStage`` materializes it into the ordinary
:class:`~repro.core.architecture.TestArchitecture`, one TAM per
rectangle at the rectangle's wire offset.

The stages register under the names ``("architecture", "packing")``
and ``("schedule", "packing")`` -- selected via
``RunConfig(architecture="packing", schedule="packing")`` or the CLI's
``--architecture packing --schedule packing``.  ``ctx.strategy`` is
recorded as ``packing-<heuristic>``.
"""

from __future__ import annotations

from repro import obs
from repro.pack.packer import HEURISTICS, pack_rectangles, packed_architecture
from repro.pack.rects import core_rectangles
from repro.pipeline.stages import PlanContext, Stage, _peak_power, _require_tables


class PackingArchitectureStage(Stage):
    """Step-3 replacement: pack core rectangles instead of partitioning."""

    name = "architecture"

    def __init__(self, heuristic: str | None = None) -> None:
        #: When set, overrides the ``--pack-opt heuristic=...`` choice.
        self.heuristic = heuristic

    def run(self, ctx: PlanContext) -> None:
        tables = _require_tables(ctx, self.name)
        opts = ctx.config.pack_options()
        heuristic = self.heuristic or opts.get("heuristic", "auto")
        if heuristic not in HEURISTICS + ("auto",):
            raise ValueError(
                f"unknown packing heuristic {heuristic!r}; expected one of "
                f"{HEURISTICS + ('auto',)}"
            )
        max_widths = opts.get("max_widths")
        unknown = set(opts) - {"heuristic", "max_widths"}
        if unknown:
            raise ValueError(
                f"unknown --pack-opt keys: {sorted(unknown)}; "
                "known: heuristic, max_widths"
            )
        with obs.span("pack", heuristic=heuristic) as attrs:
            families = core_rectangles(
                ctx.names,
                tables.times,
                ctx.width_budget,
                max_widths=int(max_widths) if max_widths is not None else None,
            )
            plan = pack_rectangles(
                ctx.soc.name,
                families,
                ctx.width_budget,
                heuristic=heuristic,
            )
            attrs["placements"] = plan.placements_evaluated
            attrs["makespan"] = plan.makespan
        obs.inc(
            "architecture.partitions_evaluated", plan.placements_evaluated
        )
        ctx.packed = plan
        ctx.partitions_evaluated = plan.placements_evaluated
        ctx.strategy = f"packing-{plan.heuristic}"
        ctx.events.emit(
            "search-done",
            self.name,
            strategy=ctx.strategy,
            partitions=plan.placements_evaluated,
            makespan=plan.makespan,
            utilization=round(plan.utilization, 4),
        )


class PackingScheduleStage(Stage):
    """Step-4 replacement: one single-core TAM per packed rectangle."""

    name = "schedule"

    def run(self, ctx: PlanContext) -> None:
        plan = ctx.packed
        if plan is None:
            raise RuntimeError(
                "PackingScheduleStage needs PackingArchitectureStage to "
                "run first"
            )
        tables = _require_tables(ctx, self.name)
        with obs.span("place-cores", cores=len(plan.rects)):
            ctx.architecture = packed_architecture(
                plan, tables.config_of, placement=ctx.placement
            )
        ctx.peak_power = _peak_power(ctx.architecture, ctx.config)
        obs.inc("schedule.cores_scheduled", len(ctx.architecture.scheduled))
        ctx.events.emit(
            "scheduled",
            self.name,
            test_time=ctx.architecture.test_time,
            tams=len(ctx.architecture.tams),
        )
