"""Tests for the exact branch-and-bound reference scheduler."""

import itertools

import pytest

from repro.core.optimal import MAX_CORES, OptimalOutcome, optimal_schedule
from repro.core.partition import partitions_list
from repro.core.scheduler import schedule_cores


def divisible(work):
    return lambda name, width: -(-work[name] // width)


def brute_force(names, total_width, time_of, max_parts, min_width=1):
    """Reference: enumerate partitions x all k^n assignments."""
    best = None
    for widths in partitions_list(total_width, max_parts, min_width):
        k = len(widths)
        for assignment in itertools.product(range(k), repeat=len(names)):
            loads = [0] * k
            for name, tam in zip(names, assignment):
                loads[tam] += time_of(name, widths[tam])
            span = max(loads)
            if best is None or span < best:
                best = span
    return best


class TestOptimalSchedule:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            optimal_schedule([], 4, lambda n, w: 1)

    def test_rejects_large_instances(self):
        names = [f"c{i}" for i in range(MAX_CORES + 1)]
        with pytest.raises(ValueError, match="at most"):
            optimal_schedule(names, 4, lambda n, w: 1)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        names = [f"c{i}" for i in range(n)]
        work = {name: int(rng.integers(10, 200)) for name in names}
        total_width = int(rng.integers(3, 8))
        time_of = divisible(work)
        outcome = optimal_schedule(names, total_width, time_of, max_parts=3)
        assert outcome.makespan == brute_force(
            names, total_width, time_of, max_parts=3
        )

    def test_assignment_realizes_makespan(self):
        work = {"a": 100, "b": 90, "c": 40, "d": 10}
        names = list(work)
        outcome = optimal_schedule(names, 6, divisible(work), max_parts=3)
        loads = [0] * len(outcome.widths)
        for name, tam in zip(names, outcome.assignment):
            loads[tam] += divisible(work)(name, outcome.widths[tam])
        assert max(loads) == outcome.makespan

    def test_heuristic_never_beats_optimal(self):
        work = {"a": 120, "b": 77, "c": 55, "d": 31, "e": 18}
        names = list(work)
        time_of = divisible(work)
        exact = optimal_schedule(names, 8, time_of, max_parts=4)
        for widths in partitions_list(8, 4):
            heuristic = schedule_cores(names, widths, time_of)
            assert heuristic.makespan >= exact.makespan

    def test_heuristic_usually_close(self):
        """The list heuristic should land within 15% on small instances."""
        import numpy as np

        worst = 1.0
        for seed in range(8):
            rng = np.random.default_rng(100 + seed)
            names = [f"c{i}" for i in range(5)]
            work = {name: int(rng.integers(20, 300)) for name in names}
            time_of = divisible(work)
            exact = optimal_schedule(names, 6, time_of, max_parts=3)
            best_heuristic = min(
                schedule_cores(names, widths, time_of).makespan
                for widths in partitions_list(6, 3)
            )
            worst = max(worst, best_heuristic / exact.makespan)
        assert worst <= 1.15

    def test_returns_outcome_type(self):
        outcome = optimal_schedule(["a"], 3, lambda n, w: 10 - w)
        assert isinstance(outcome, OptimalOutcome)
        assert outcome.widths == (3,)
        assert outcome.nodes_explored > 0
