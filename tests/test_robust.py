"""Tests for robust planning under test-time uncertainty."""

import pytest

from repro.core.robust import (
    RobustPlan,
    UncertaintyReport,
    evaluate_under_uncertainty,
    robust_search,
)
from repro.search import run_search


def divisible(work):
    return lambda name, width: -(-work[name] // width)


WORK = {"a": 400, "b": 310, "c": 180, "d": 90}


@pytest.fixture
def nominal_outcome():
    return run_search(list(WORK), 8, divisible(WORK)).outcome


class TestEvaluate:
    def test_validation(self, nominal_outcome):
        with pytest.raises(ValueError):
            evaluate_under_uncertainty(
                list(WORK), nominal_outcome, divisible(WORK), epsilon=1.0
            )
        with pytest.raises(ValueError):
            evaluate_under_uncertainty(
                list(WORK), nominal_outcome, divisible(WORK), trials=0
            )

    def test_zero_epsilon_is_exact(self, nominal_outcome):
        report = evaluate_under_uncertainty(
            list(WORK), nominal_outcome, divisible(WORK), epsilon=0.0, trials=10
        )
        assert report.worst == report.nominal == report.best
        assert report.mean == pytest.approx(report.nominal)

    def test_ordering_of_statistics(self, nominal_outcome):
        report = evaluate_under_uncertainty(
            list(WORK), nominal_outcome, divisible(WORK), epsilon=0.2
        )
        assert isinstance(report, UncertaintyReport)
        assert report.best <= report.mean <= report.worst
        assert report.regret >= 1.0

    def test_worst_case_bound(self, nominal_outcome):
        report = evaluate_under_uncertainty(
            list(WORK), nominal_outcome, divisible(WORK), epsilon=0.25
        )
        # Common inflation bounds the worst case at (1 + eps) x nominal
        # (rounding aside).
        assert report.worst <= report.nominal * 1.25 + len(WORK)

    def test_deterministic_in_seed(self, nominal_outcome):
        a = evaluate_under_uncertainty(
            list(WORK), nominal_outcome, divisible(WORK), seed=5
        )
        b = evaluate_under_uncertainty(
            list(WORK), nominal_outcome, divisible(WORK), seed=5
        )
        assert a == b


class TestRobustSearch:
    def test_validation(self):
        with pytest.raises(ValueError):
            robust_search(list(WORK), 8, divisible(WORK), epsilon=1.5)

    def test_zero_epsilon_matches_nominal_search(self):
        robust = robust_search(list(WORK), 8, divisible(WORK), epsilon=0.0)
        nominal = run_search(list(WORK), 8, divisible(WORK))
        assert robust.nominal_makespan == nominal.makespan

    def test_worst_case_no_worse_than_nominal_plan(self):
        """The robust plan's worst case must beat (or tie) the worst
        case of the nominally optimal plan."""
        epsilon = 0.2
        nominal = run_search(list(WORK), 8, divisible(WORK))
        nominal_worst = evaluate_under_uncertainty(
            list(WORK), nominal.outcome, divisible(WORK), epsilon=epsilon
        ).worst
        robust = robust_search(list(WORK), 8, divisible(WORK), epsilon=epsilon)
        assert robust.worst_case_makespan <= nominal_worst + len(WORK)

    def test_nominal_at_most_worst(self):
        robust = robust_search(list(WORK), 8, divisible(WORK), epsilon=0.3)
        assert isinstance(robust, RobustPlan)
        assert robust.nominal_makespan <= robust.worst_case_makespan
        assert sum(robust.widths) <= 8
