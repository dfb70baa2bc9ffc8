"""Tests for multi-frequency TAM planning."""

import pytest

from repro.core.multifrequency import (
    FrequencyTam,
    _tam_options,
    optimize_multifrequency,
)
from repro.core.partition import partitions_list
from repro.core.scheduler import schedule_cores


def divisible(work):
    return lambda name, width: -(-work[name] // width)


class TestTamOptions:
    def test_factorizations(self):
        options = _tam_options(8, (1, 2, 4))
        assert FrequencyTam(8, 1) in options
        assert FrequencyTam(4, 2) in options
        assert FrequencyTam(2, 4) in options

    def test_non_dividing_ratio_skipped(self):
        options = _tam_options(6, (1, 2, 4))
        assert FrequencyTam(3, 2) in options
        assert all(o.ratio != 4 for o in options)

    def test_bandwidth_invariant(self):
        for option in _tam_options(12, (1, 2, 4)):
            assert option.bandwidth == 12


class TestOptimize:
    def test_validation(self):
        with pytest.raises(ValueError):
            optimize_multifrequency([], 4, lambda n, w: 1)
        with pytest.raises(ValueError):
            optimize_multifrequency(["a"], 0, lambda n, w: 1)
        with pytest.raises(ValueError):
            optimize_multifrequency(["a"], 4, lambda n, w: 1, ratios=(0,))

    def test_single_rate_reduces_to_plain_search(self):
        work = {"a": 120, "b": 77, "c": 55}
        names = list(work)
        time_of = divisible(work)
        multi = optimize_multifrequency(
            names, 8, time_of, ratios=(1,), max_tams=3
        )
        plain = min(
            schedule_cores(names, widths, time_of).makespan
            for widths in partitions_list(8, 3)
        )
        assert multi.makespan == plain

    def test_faster_clocks_never_hurt(self):
        work = {"a": 200, "b": 150, "c": 90}
        names = list(work)
        time_of = divisible(work)
        base = optimize_multifrequency(names, 8, time_of, ratios=(1,))
        fast = optimize_multifrequency(names, 8, time_of, ratios=(1, 2, 4))
        assert fast.makespan <= base.makespan

    def test_bandwidth_budget_respected(self):
        work = {"a": 100, "b": 60}
        plan = optimize_multifrequency(list(work), 6, divisible(work))
        assert sum(t.bandwidth for t in plan.tams) <= 6

    def test_fast_narrow_tam_saves_wires(self):
        """At equal bandwidth, a 2x-clocked TAM halves the wires.

        With divisible work, time ~ work / (width * ratio), so the fast
        option matches the wide one while using fewer wires; the search
        must find a plan no worse than the single-rate one with at most
        the same wire count.
        """
        work = {"a": 400}
        plan = optimize_multifrequency(
            ["a"], 8, divisible(work), ratios=(1, 2, 4)
        )
        single = optimize_multifrequency(["a"], 8, divisible(work), ratios=(1,))
        assert plan.makespan <= single.makespan
        assert plan.total_wires <= 8

    def test_frequency_limits_respected(self):
        work = {"slow": 100, "fast": 100}
        plan = optimize_multifrequency(
            list(work),
            8,
            divisible(work),
            ratios=(1, 4),
            freq_limit={"slow": 1},
        )
        tam_of = {name: plan.tams[t] for name, t in zip(work, plan.assignment)}
        assert tam_of["slow"].ratio == 1

    def test_impossible_limits_raise(self):
        work = {"slow": 100}
        with pytest.raises(ValueError, match="no feasible"):
            optimize_multifrequency(
                ["slow"],
                4,
                divisible(work),
                ratios=(4,),  # only 4x TAMs exist...
                freq_limit={"slow": 1},  # ...but the core can't take them
            )

    def test_assignment_covers_all_cores(self):
        work = {f"c{i}": 50 + i for i in range(5)}
        plan = optimize_multifrequency(list(work), 10, divisible(work))
        assert len(plan.assignment) == 5
        assert all(0 <= t < len(plan.tams) for t in plan.assignment)

    def test_configurations_counted(self):
        work = {"a": 10}
        plan = optimize_multifrequency(["a"], 4, divisible(work))
        assert plan.configurations_evaluated > 0
