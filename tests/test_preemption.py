"""Tests for preemptive constrained scheduling."""

import pytest

from repro.core.timeline import (
    PrecedenceError,
    Segment,
    _feasible_windows,
    schedule_constrained,
    schedule_preemptive,
)


def flat_time(times):
    return lambda name, width: times[name]


def _no_tam_overlap(schedule):
    by_tam = {}
    for segment in schedule.segments:
        by_tam.setdefault(segment.tam, []).append(segment)
    for items in by_tam.values():
        items.sort(key=lambda s: s.start)
        for a, b in zip(items, items[1:]):
            if b.start < a.end:
                return False
    return True


def _durations_complete(schedule, times, widths):
    for name, duration in times.items():
        segments = schedule.segments_for(name)
        tams = {s.tam for s in segments}
        assert len(tams) == 1, "a core must stay on one TAM"
        total = sum(s.duration for s in segments)
        # Flat time function: duration identical on every TAM.
        assert total == duration, name


class TestValidation:
    def test_requires_tam(self):
        with pytest.raises(ValueError):
            schedule_preemptive(["a"], [], flat_time({"a": 1}))

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            schedule_preemptive(["a"], [0], flat_time({"a": 1}))

    def test_rejects_zero_segments(self):
        with pytest.raises(ValueError):
            schedule_preemptive(["a"], [1], flat_time({"a": 1}), max_segments=0)

    def test_precedence_validated(self):
        with pytest.raises(PrecedenceError):
            schedule_preemptive(
                ["a"], [1], flat_time({"a": 1}), precedence=[("a", "a")]
            )

    def test_duplicate_core_names(self):
        with pytest.raises(ValueError, match=r"duplicate core names: \['a'\]"):
            schedule_preemptive(["a", "a"], [1], flat_time({"a": 1}))

    def test_infeasible_power(self):
        with pytest.raises(ValueError, match="exceeds"):
            schedule_preemptive(
                ["a"],
                [1],
                flat_time({"a": 1}),
                power_of={"a": 9.0},
                power_budget=5.0,
            )


class TestUnconstrainedEquivalence:
    def test_matches_non_preemptive_without_constraints(self):
        times = {"a": 9, "b": 7, "c": 5, "d": 3}
        widths = [1, 1]
        baseline = schedule_constrained(list(times), widths, flat_time(times))
        preemptive = schedule_preemptive(list(times), widths, flat_time(times))
        assert preemptive.makespan == baseline.makespan
        assert preemptive.preemption_count == 0

    def test_segments_cover_durations(self):
        times = {"a": 4, "b": 6, "c": 2}
        schedule = schedule_preemptive(list(times), [1], flat_time(times))
        _durations_complete(schedule, times, [1])
        assert _no_tam_overlap(schedule)


class TestPreemptionUnderPower:
    def _instance(self):
        # One long cool test and two short hot tests: the hot ones cannot
        # overlap each other; preemption lets the long test wrap around.
        times = {"long": 20, "hot1": 6, "hot2": 6}
        power = {"long": 2.0, "hot1": 5.0, "hot2": 5.0}
        return times, power, 7.0  # budget: long+hot fits, hot+hot doesn't

    def test_respects_budget(self):
        times, power, budget = self._instance()
        schedule = schedule_preemptive(
            list(times), [1, 1], flat_time(times), power_of=power,
            power_budget=budget,
        )
        assert schedule.peak_power <= budget + 1e-9
        assert _no_tam_overlap(schedule)
        _durations_complete(schedule, times, [1, 1])

    def test_never_slower_than_non_preemptive(self):
        times, power, budget = self._instance()
        non_preemptive = schedule_constrained(
            list(times), [1, 1], flat_time(times), power_of=power,
            power_budget=budget,
        )
        preemptive = schedule_preemptive(
            list(times), [1, 1], flat_time(times), power_of=power,
            power_budget=budget, max_segments=3,
        )
        assert preemptive.makespan <= non_preemptive.makespan

    def test_preemption_actually_used_when_it_helps(self):
        # A hot long test blocks a gap that a preempted test can fill.
        times = {"blocker": 10, "filler": 14}
        power = {"blocker": 6.0, "filler": 3.0}
        # Budget 8: blocker+filler cannot overlap.
        schedule = schedule_preemptive(
            ["blocker", "filler"],
            [1, 1],
            flat_time(times),
            power_of=power,
            power_budget=8.0,
            max_segments=3,
        )
        assert schedule.peak_power <= 8.0 + 1e-9
        # Serial lower bound is 24; both schedulers should reach it.
        assert schedule.makespan == 24

    def test_segment_cap_respected(self):
        times = {f"hot{i}": 4 for i in range(4)}
        times["long"] = 30
        power = {name: 5.0 for name in times}
        power["long"] = 2.0
        schedule = schedule_preemptive(
            list(times),
            [1, 1],
            flat_time(times),
            power_of=power,
            power_budget=7.0,
            max_segments=2,
        )
        for name in times:
            assert len(schedule.segments_for(name)) <= 2

    def test_segment_indices_ordered(self):
        times, power, budget = self._instance()
        schedule = schedule_preemptive(
            list(times), [1, 1], flat_time(times), power_of=power,
            power_budget=budget,
        )
        for name in times:
            segments = schedule.segments_for(name)
            assert [s.index for s in segments] == list(range(len(segments)))


class TestFeasibleWindows:
    def test_last_window_closes_at_horizon(self):
        placed = [
            Segment(name="a", tam=0, start=0, end=5, power=2.0, index=0),
            Segment(name="b", tam=1, start=2, end=8, power=3.0, index=0),
        ]
        horizon = 9  # max end + 1
        for tam in (0, 1):
            windows = _feasible_windows(
                placed, tam, 0, 1.0, budget=10.0, horizon=horizon
            )
            assert windows
            assert windows[-1][1] == horizon

    def test_ready_adjacent_to_horizon(self):
        # A successor becomes ready one cycle before the horizon (its
        # predecessor is the last thing placed): the sweep must still
        # produce the single trailing window [ready, horizon) rather
        # than an empty list.
        placed = [
            Segment(name="pred", tam=0, start=0, end=10, power=0.0, index=0)
        ]
        windows = _feasible_windows(
            placed, tam=0, ready=10, power=0.0, budget=None, horizon=11
        )
        assert windows == [(10, 11)]

    def test_successor_ready_at_horizon_minus_one_schedules(self):
        # End-to-end version of the adjacency case: b's ready time is
        # exactly horizon - 1 when it is placed.
        times = {"a": 10, "b": 4}
        schedule = schedule_preemptive(
            ["a", "b"],
            [1],
            flat_time(times),
            precedence=[("a", "b")],
        )
        (b,) = schedule.segments_for("b")
        assert b.start == 10
        assert schedule.makespan == 14


class TestPrecedence:
    def test_successor_waits_for_all_segments(self):
        times = {"a": 10, "b": 4}
        schedule = schedule_preemptive(
            list(times),
            [1, 1],
            flat_time(times),
            precedence=[("a", "b")],
        )
        a_end = max(s.end for s in schedule.segments_for("a"))
        b_start = min(s.start for s in schedule.segments_for("b"))
        assert b_start >= a_end
