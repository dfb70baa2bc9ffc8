"""The power-constrained and per-TAM flows search through ``run_search``.

Each flow costs a partition by its own step-4 schedule -- the
power/precedence timeline, or the per-TAM shared-width re-cost -- as
the search's ``schedule`` objective.  So ``strategy``, the
``AUTO_PARTITION_LIMIT`` fallback to greedy and the ``search.*``
signals reach these flows as they reach the standard one, while the
searches that cost core assignments directly are refused, and so is a
constrained or per-TAM stage selected without its partner.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.core import partition
from repro.core.scheduler import ScheduleOutcome, schedule_cores_indexed
from repro.pipeline import Pipeline, RunConfig, VerifyStage, plan
from repro.power.model import power_table
from repro.search import PartitionSearchResult, backend, run_search
from repro.soc.industrial import load_design
from repro.verify import verify_plan

FLOWS = ("power", "per-tam")


def _config(soc, flow: str) -> RunConfig:
    """The flow's config; "power" takes the budget the benchmark uses."""
    base = RunConfig(use_cache=False)
    if flow == "power":
        budget = 0.6 * sum(power_table(soc, compression=True).values())
        return base.replace(power_budget=budget)
    return base.replace(compression="per-tam")


@pytest.fixture
def d695():
    return load_design("d695")


@pytest.mark.parametrize("flow", FLOWS)
def test_greedy_strategy_reaches_the_flow(d695, flow):
    config = _config(d695, flow)
    exhaustive = plan(d695, 16, config)
    greedy = plan(d695, 16, config.replace(strategy="greedy"))
    assert exhaustive.strategy == "exhaustive"
    assert greedy.strategy == "greedy"
    assert greedy.partitions_evaluated < exhaustive.partitions_evaluated
    report = verify_plan(greedy, d695, config=config)
    assert report.checks and not report.violations
    assert greedy.test_time >= exhaustive.test_time


@pytest.mark.parametrize("flow", FLOWS)
@pytest.mark.parametrize("strategy", ["anneal", "evolutionary"])
def test_assignment_searches_are_refused(tiny_soc, flow, strategy):
    config = _config(tiny_soc, flow).replace(strategy=strategy)
    with pytest.raises(ValueError, match="auto, exhaustive, greedy"):
        plan(tiny_soc, 8, config)


def test_auto_falls_back_to_greedy_past_the_limit(d695, monkeypatch):
    size = partition.count_partitions(16, 6)
    monkeypatch.setattr(partition, "AUTO_PARTITION_LIMIT", size - 1)
    result = plan(d695, 16, _config(d695, "power"))
    assert result.strategy == "greedy"
    assert verify_plan(result, d695, config=_config(d695, "power")).ok


@pytest.mark.parametrize(
    "architecture, schedule",
    [
        ("greedy", "constrained"),
        ("auto", "constrained"),
        ("constrained", "list"),
        ("constrained", "auto"),
        ("partition", "per-tam"),
        ("per-tam", "list"),
    ],
)
def test_flow_stages_are_selected_in_pairs(tiny_soc, architecture, schedule):
    """Each schedule stage lays out what only its own search costed."""
    config = RunConfig(
        power_budget=10_000.0,
        architecture=architecture,
        schedule=schedule,
        verify=True,
    )
    with pytest.raises(ValueError, match="must be selected together"):
        plan(tiny_soc, 8, config)


def test_constrained_schedule_honours_the_budget_after_any_search(d695):
    """The constrained schedule works out the power table itself."""
    config = _config(d695, "power")
    stages = Pipeline.from_registry("greedy", "constrained").stages
    result = Pipeline(stages + (VerifyStage(),)).run(d695, 16, config)
    assert 0 < result.peak_power <= config.power_budget
    assert verify_plan(result, d695, config=config).ok


class _TwoTams:
    """A custom backend that costs whole partitions: the best 2-TAM split."""

    name = "two-tams"
    hyperparameters: dict[str, type] = {}

    def run(self, evaluator, space, **options):
        total = space.total_width
        for low in range(space.min_width, total // 2 + 1):
            evaluator.schedule((total - low, low))
        return PartitionSearchResult(
            outcome=evaluator.best,
            partitions_evaluated=evaluator.evaluations,
            strategy=self.name,
        )


@pytest.mark.parametrize("flow", FLOWS)
def test_partition_costing_custom_backend_reaches_the_flow(
    d695, flow, monkeypatch
):
    monkeypatch.setitem(backend._BACKENDS, "two-tams", _TwoTams())
    config = _config(d695, flow).replace(strategy="two-tams")
    result = plan(d695, 16, config)
    assert result.strategy == "two-tams"
    assert len(result.architecture.tams) == 2
    assert verify_plan(result, d695, config=config).ok


def test_power_search_emits_search_signals(d695):
    with obs.enabled():
        result = plan(d695, 16, _config(d695, "power"))
    counters = result.report.metrics["counters"]
    assert counters["search.evaluations"] == result.partitions_evaluated
    gauges = result.report.metrics["gauges"]
    assert gauges["search.best_makespan"] == result.test_time


class TestScheduleObjective:
    """``run_search(schedule=...)`` on a small synthetic workload."""

    @staticmethod
    def _workload():
        names = [f"c{i}" for i in range(5)]

        def time_of(name: str, width: int) -> int:
            return (int(name[1:]) * 37 + 11) * 60 // width + 7 * width

        return names, time_of

    @pytest.mark.parametrize("strategy", ["exhaustive", "greedy"])
    def test_list_heuristic_objective_matches_the_kernel(self, strategy):
        """Partition by partition, the first minimum still wins."""
        names, time_of = self._workload()
        plain = run_search(names, 14, time_of, strategy=strategy)
        custom = run_search(
            names, 14, time_of, strategy=strategy, schedule=schedule_cores_indexed
        )
        assert custom == plain

    def test_objective_is_the_cost(self):
        names, time_of = self._workload()
        calls: list[tuple[int, ...]] = []

        def fewest_tams(table, widths):
            calls.append(widths)
            outcome = schedule_cores_indexed(table, widths)
            # Penalize every extra TAM, so one TAM wins.
            return ScheduleOutcome(
                widths=outcome.widths,
                makespan=outcome.makespan + 10**6 * (len(widths) - 1),
                assignment=outcome.assignment,
            )

        result = run_search(
            names, 14, time_of, strategy="exhaustive", schedule=fewest_tams
        )
        assert result.widths == (14,)
        assert len(calls) == result.partitions_evaluated

    @pytest.mark.parametrize("strategy", ["anneal", "evolutionary"])
    def test_assignment_strategies_refused(self, strategy):
        names, time_of = self._workload()
        with pytest.raises(ValueError, match="auto, exhaustive, greedy"):
            run_search(
                names, 14, time_of, strategy=strategy, schedule=schedule_cores_indexed
            )
