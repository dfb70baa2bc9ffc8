"""Tests for the simulated-annealing architecture search."""

import pytest

from repro.core.scheduler import schedule_cores
from repro.search import run_search


def divisible(work):
    return lambda name, width: -(-work[name] // width)


def anneal(core_names, total_width, time_of, *, min_width=1, **options):
    """The ``anneal`` backend through the search front door."""
    return run_search(
        core_names,
        total_width,
        time_of,
        strategy="anneal",
        min_width=min_width,
        options=options,
    )


WORK = {"a": 300, "b": 240, "c": 150, "d": 80, "e": 40}


class TestAnnealSearch:
    def test_validation(self):
        with pytest.raises(ValueError):
            anneal([], 8, lambda n, w: 1)
        with pytest.raises(ValueError):
            anneal(["a"], 1, lambda n, w: 1, min_width=2)
        with pytest.raises(ValueError):
            anneal(["a"], 8, lambda n, w: 1, cooling=1.0)

    def test_deterministic_in_seed(self):
        time_of = divisible(WORK)
        a = anneal(list(WORK), 10, time_of, seed=3, iterations=800)
        b = anneal(list(WORK), 10, time_of, seed=3, iterations=800)
        assert a.outcome == b.outcome

    def test_widths_respect_budget_and_floor(self):
        result = anneal(
            list(WORK), 10, divisible(WORK), min_width=2, iterations=800
        )
        assert sum(result.widths) <= 10
        assert all(w >= 2 for w in result.widths)
        assert all(a >= b for a, b in zip(result.widths, result.widths[1:]))

    def test_makespan_matches_assignment(self):
        time_of = divisible(WORK)
        result = anneal(list(WORK), 10, time_of, iterations=1000)
        loads = [0] * len(result.widths)
        for name, tam in zip(WORK, result.outcome.assignment):
            loads[tam] += time_of(name, result.widths[tam])
        assert max(loads) == result.makespan

    def test_close_to_exhaustive(self):
        time_of = divisible(WORK)
        exact = run_search(
            list(WORK), 10, time_of, strategy="exhaustive"
        )
        sa = anneal(list(WORK), 10, time_of, iterations=4000, seed=1)
        assert sa.makespan <= exact.makespan * 1.10

    def test_never_worse_than_serial(self):
        time_of = divisible(WORK)
        serial = schedule_cores(list(WORK), [10], time_of).makespan
        sa = anneal(list(WORK), 10, time_of, iterations=500)
        assert sa.makespan <= serial

    def test_strategy_dispatch(self):
        result = run_search(
            list(WORK), 10, divisible(WORK), strategy="anneal"
        )
        assert result.strategy == "anneal"

    def test_single_core(self):
        result = anneal(["a"], 6, divisible({"a": 60}), iterations=200)
        # Best for one core is the full width.
        assert result.makespan == 10
