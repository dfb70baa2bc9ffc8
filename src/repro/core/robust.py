"""Robust test planning under test-time uncertainty (extension).

Planned core test times are estimates: pattern counts grow with late
ECOs, compression ratios move with final ATPG, and the paper's own
sampled estimator carries a few percent of noise.  Following the
uncertainty-aware line of follow-up work (e.g. Deutsch & Chakrabarty's
robust TAM optimization), this module

* evaluates a *fixed* architecture under sampled multiplicative
  perturbations of the per-core times (:func:`evaluate_under_uncertainty`),
  reporting the makespan distribution and the worst case; and
* searches for a *robust* plan (:func:`robust_search`) by optimizing
  against inflated times -- the standard box-uncertainty surrogate --
  and reports both its nominal and worst-case makespan, so the nominal
  optimum and the robust plan can be compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.core.scheduler import ScheduleOutcome, TimeFn, TimeTable, as_table, tam_loads
from repro.search import PartitionSearchResult, run_search


@dataclass(frozen=True)
class UncertaintyReport:
    """Makespan statistics of a fixed assignment under perturbed times."""

    nominal: int
    mean: float
    worst: int
    best: int
    trials: int

    @property
    def regret(self) -> float:
        """Worst-case slowdown relative to the nominal plan."""
        return self.worst / self.nominal if self.nominal else 1.0


def _makespan_with_times(
    core_names: Sequence[str],
    outcome: ScheduleOutcome,
    times: dict[str, int],
) -> int:
    loads = [0] * len(outcome.widths)
    for index, tam in enumerate(outcome.assignment):
        loads[tam] += times[core_names[index]]
    return max(loads)


def evaluate_under_uncertainty(
    core_names: Sequence[str],
    outcome: ScheduleOutcome,
    time_of: TimeFn,
    *,
    epsilon: float = 0.1,
    trials: int = 200,
    seed: int = 0,
) -> UncertaintyReport:
    """Sample per-core time perturbations in ``[1-eps, 1+eps]``.

    The assignment stays fixed (the architecture is committed to
    silicon); only the realized times move.
    """
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon must be in [0, 1), got {epsilon}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    nominal_times = {
        name: time_of(name, outcome.widths[tam])
        for name, tam in zip(core_names, outcome.assignment)
    }
    nominal = _makespan_with_times(core_names, outcome, nominal_times)
    spans = []
    for _ in range(trials):
        factors = rng.uniform(1 - epsilon, 1 + epsilon, size=len(core_names))
        perturbed = {
            name: max(1, int(round(nominal_times[name] * factor)))
            for name, factor in zip(core_names, factors)
        }
        spans.append(_makespan_with_times(core_names, outcome, perturbed))
    # The analytic worst case of a fixed assignment under box
    # uncertainty: every core at its maximum time.
    worst_times = {
        name: max(1, int(round(t * (1 + epsilon))))
        for name, t in nominal_times.items()
    }
    worst = _makespan_with_times(core_names, outcome, worst_times)
    return UncertaintyReport(
        nominal=nominal,
        mean=float(np.mean(spans)),
        worst=worst,
        best=int(min(spans)),
        trials=trials,
    )


@dataclass(frozen=True)
class RobustPlan:
    """A robust architecture and its nominal/worst-case makespans."""

    search: PartitionSearchResult
    nominal_makespan: int
    worst_case_makespan: int

    @property
    def widths(self) -> tuple[int, ...]:
        return self.search.widths


@dataclass(frozen=True)
class RobustPlanResult:
    """A full pipeline plan optimized for the worst case."""

    result: "Any"
    nominal_makespan: int
    worst_case_makespan: int
    epsilon: float

    @property
    def regret(self) -> float:
        """Worst-case slowdown relative to the nominal makespan."""
        if not self.nominal_makespan:
            return 1.0
        return self.worst_case_makespan / self.nominal_makespan


def robust_plan(
    soc: "Any",
    tam_width: int,
    config: "Any | None" = None,
    *,
    epsilon: float = 0.1,
    events: "Any | None" = None,
) -> RobustPlanResult:
    """Plan ``soc`` against inflated times, via the staged pipeline.

    Runs the standard wrapper/decompressor stages, swaps the
    architecture stage for
    :class:`~repro.pipeline.stages.RobustArchitectureStage` (the
    registry's "robust" entry), and schedules as usual.  Returns the
    :class:`~repro.pipeline.result.PlanResult` together with the
    nominal and worst-case makespans of the chosen assignment.
    """
    from repro.pipeline.config import RunConfig
    from repro.pipeline.events import RunEvent
    from repro.pipeline.pipeline import Pipeline
    from repro.pipeline.stages import (
        DecompressorStage,
        RobustArchitectureStage,
        ScheduleStage,
        WrapperStage,
    )

    if config is None:
        config = RunConfig()
    captured: dict[str, Any] = {}

    def capture(event: RunEvent) -> None:
        if event.kind == "search-done":
            captured.update(event.payload)

    sinks = [capture]
    if events is not None:
        sinks.extend(events if isinstance(events, (list, tuple)) else [events])
    pipeline = Pipeline(
        [
            WrapperStage(),
            DecompressorStage(),
            RobustArchitectureStage(epsilon=epsilon),
            ScheduleStage(),
        ],
        name="robust",
    )
    result = pipeline.run(soc, tam_width, config, events=sinks)
    return RobustPlanResult(
        result=result,
        nominal_makespan=int(captured["nominal_makespan"]),
        worst_case_makespan=int(captured["worst_case_makespan"]),
        epsilon=epsilon,
    )


def robust_search(
    core_names: Sequence[str],
    total_width: int,
    time_of: TimeTable | TimeFn,
    *,
    epsilon: float = 0.1,
    max_parts: int | None = None,
    min_width: int = 1,
    strategy: str = "auto",
    options: "Any | None" = None,
) -> RobustPlan:
    """Optimize against inflated times (box-uncertainty surrogate).

    For box uncertainty with a common ``epsilon``, the worst case of any
    assignment is exactly its makespan under times scaled by
    ``1 + epsilon``, so optimizing the inflated instance minimizes the
    true worst case over the partition/assignment space searched.  The
    search reads an inflated view of the cost table, a row at a time.
    """
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon must be in [0, 1), got {epsilon}")
    table = as_table(core_names, time_of)

    def inflated(width: int) -> list[int]:
        return [max(1, int(round(t * (1 + epsilon)))) for t in table.row(width)]

    search = run_search(
        core_names,
        total_width,
        TimeTable.from_rows(table.core_names, inflated),
        max_parts=max_parts,
        min_width=min_width,
        strategy=strategy,
        options=options,
    )
    outcome = search.outcome
    return RobustPlan(
        search=search,
        nominal_makespan=max(tam_loads(table, outcome.widths, outcome.assignment)),
        worst_case_makespan=search.makespan,
    )
