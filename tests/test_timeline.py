"""Unit tests for the constrained (power + precedence) scheduler."""

import pytest

from repro.core.scheduler import schedule_cores
from repro.core.timeline import (
    PrecedenceError,
    Segment,
    power_steps,
    schedule_constrained,
    schedule_preemptive,
)


def flat_time(times):
    return lambda name, width: times[name]


class TestUnconstrainedEquivalence:
    def test_reduces_to_paper_scheduler(self):
        times = {"a": 9, "b": 7, "c": 5, "d": 3, "e": 2}
        widths = [2, 1]
        baseline = schedule_cores(list(times), widths, flat_time(times))
        constrained = schedule_constrained(list(times), widths, flat_time(times))
        assert constrained.makespan == baseline.makespan
        assert constrained.tam_idle_cycles == 0

    def test_back_to_back_per_tam(self):
        times = {"a": 4, "b": 3, "c": 2}
        schedule = schedule_constrained(list(times), [1], flat_time(times))
        intervals = sorted(schedule.segments, key=lambda iv: iv.start)
        assert intervals[0].start == 0
        for first, second in zip(intervals, intervals[1:]):
            assert second.start == first.end


class TestValidation:
    def test_requires_tam(self):
        with pytest.raises(ValueError):
            schedule_constrained(["a"], [], flat_time({"a": 1}))

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            schedule_constrained(["a"], [0], flat_time({"a": 1}))

    def test_unknown_precedence_core(self):
        with pytest.raises(PrecedenceError, match="unknown"):
            schedule_constrained(
                ["a"], [1], flat_time({"a": 1}), precedence=[("a", "ghost")]
            )

    def test_self_precedence(self):
        with pytest.raises(PrecedenceError, match="itself"):
            schedule_constrained(
                ["a"], [1], flat_time({"a": 1}), precedence=[("a", "a")]
            )

    def test_cyclic_precedence(self):
        times = {"a": 1, "b": 1}
        with pytest.raises(PrecedenceError, match="cyclic"):
            schedule_constrained(
                list(times),
                [1],
                flat_time(times),
                precedence=[("a", "b"), ("b", "a")],
            )

    def test_duplicate_core_names(self):
        with pytest.raises(ValueError, match=r"duplicate core names: \['a'\]"):
            schedule_constrained(["a", "a"], [1], flat_time({"a": 1}))

    def test_infeasible_power(self):
        with pytest.raises(ValueError, match="exceeds the power budget"):
            schedule_constrained(
                ["a"],
                [1],
                flat_time({"a": 1}),
                power_of={"a": 10.0},
                power_budget=5.0,
            )

    @pytest.mark.parametrize("budget", [None, 5.0])
    @pytest.mark.parametrize(
        "schedule", [schedule_constrained, schedule_preemptive]
    )
    def test_power_map_missing_cores(self, schedule, budget):
        times = {"a": 3, "b": 2, "c": 1}
        with pytest.raises(ValueError, match=r"core\(s\) a, c$"):
            schedule(
                list(times),
                [1, 1],
                flat_time(times),
                power_of={"b": 1.0},
                power_budget=budget,
            )


class TestPrecedence:
    def test_successor_waits(self):
        times = {"a": 10, "b": 2}
        schedule = schedule_constrained(
            list(times), [1, 1], flat_time(times), precedence=[("a", "b")]
        )
        (a,) = schedule.segments_for("a")
        (b,) = schedule.segments_for("b")
        assert b.start >= a.end

    def test_chain_of_three(self):
        times = {"a": 3, "b": 3, "c": 3}
        schedule = schedule_constrained(
            list(times),
            [3, 3, 3],
            flat_time(times),
            precedence=[("a", "b"), ("b", "c")],
        )
        assert schedule.makespan == 9

    def test_precedence_can_insert_idle(self):
        times = {"a": 10, "b": 2, "c": 1}
        schedule = schedule_constrained(
            list(times), [1], flat_time(times), precedence=[("a", "c")]
        )
        # Serial single TAM: idle only if ordering forces it; here the
        # list order (longest first) already satisfies a before c.
        assert schedule.makespan >= 13


class TestPowerBudget:
    def test_budget_serializes_heavy_tests(self):
        times = {"a": 10, "b": 10}
        power = {"a": 6.0, "b": 6.0}
        parallel = schedule_constrained(
            list(times), [1, 1], flat_time(times), power_of=power,
            power_budget=20.0,
        )
        assert parallel.makespan == 10  # runs concurrently
        limited = schedule_constrained(
            list(times), [1, 1], flat_time(times), power_of=power,
            power_budget=10.0,
        )
        assert limited.makespan == 20  # forced serial
        assert limited.peak_power <= 10.0

    def test_idle_cycles_property(self):
        from repro.core.timeline import ConstrainedSchedule

        schedule = ConstrainedSchedule(
            widths=(1,),
            segments=(
                Segment("a", 0, 0, 5, 0.0),
                Segment("b", 0, 8, 12, 0.0),
            ),
            makespan=12,
            peak_power=0.0,
        )
        assert schedule.tam_idle_cycles == 3

    def test_peak_power_tracked(self):
        times = {"a": 5, "b": 5, "c": 5}
        power = {"a": 2.0, "b": 3.0, "c": 4.0}
        schedule = schedule_constrained(
            list(times), [1, 1, 1], flat_time(times), power_of=power,
            power_budget=100.0,
        )
        assert schedule.peak_power == pytest.approx(9.0)

    def test_budget_respected_in_profile(self):
        times = {f"c{i}": 4 + i for i in range(6)}
        power = {name: 3.0 for name in times}
        budget = 7.0
        schedule = schedule_constrained(
            list(times), [1, 1, 1], flat_time(times), power_of=power,
            power_budget=budget,
        )
        assert schedule.peak_power <= budget + 1e-9

    def test_tighter_budget_never_faster(self):
        times = {f"c{i}": 6 for i in range(5)}
        power = {name: 2.0 for name in times}
        spans = []
        for budget in (10.0, 6.0, 4.0, 2.0):
            schedule = schedule_constrained(
                list(times), [1] * 5, flat_time(times), power_of=power,
                power_budget=budget,
            )
            spans.append(schedule.makespan)
        assert all(b >= a for a, b in zip(spans, spans[1:]))


class TestPeakPowerHelper:
    def test_overlapping_intervals(self):
        steps = power_steps([(0, 10, 2.0), (5, 15, 3.0), (20, 25, 9.0)])
        assert steps == [
            (0, 2.0), (5, 5.0), (10, 3.0), (15, 0.0), (20, 9.0), (25, 0.0)
        ]
        assert max(level for _, level in steps) == 9.0

    def test_empty(self):
        assert power_steps([]) == [(0, 0.0)]
