"""The ``repro.search`` backends reproduce their golden answers.

Function level: :func:`~repro.search.run_search` on the seeded random
workloads of ``tests/test_golden_plans.py`` must match the ``searches``
section of ``tests/golden_plans.json`` under every strategy; this is
the one check of that section.  The anneal answers are those of the
fixed annealer (cooling once per iteration; see
``tests/test_search_backends.py`` for the cooling-fix tests).

Pipeline level: plans of the six benchmark SOCs under each search
strategy, each on cold analyses, must match their plan fingerprints.
"""

from __future__ import annotations

import pytest

from repro.pipeline import RunConfig, plan
from repro.search import run_search
from repro.soc.industrial import load_design
from test_golden_plans import (
    SEARCH_SEEDS,
    SEARCH_STRATEGIES,
    fingerprint,
    golden,
    random_workload,
    search_fingerprint,
    search_fingerprints,
)

ALL_DESIGNS = ("d695", "d2758", "System1", "System2", "System3", "System4")


def _assert_golden_searches(strategy, keys):
    expected = golden()["searches"][strategy]
    actual = search_fingerprints(strategy, keys)
    changed = sorted(key for key in keys if actual[key] != expected[key])
    assert not changed, f"{strategy}: searches changed for {changed}"


def _seeded(strategy):
    return [f"{strategy}/{seed}" for seed in range(SEARCH_SEEDS)]


# ----------------------------------------------------------------------
# Function level on random workloads.
# ----------------------------------------------------------------------


class TestFunctionLevel:
    @pytest.mark.parametrize("strategy", ["auto", "exhaustive", "greedy"])
    def test_enumerative_strategies_bit_identical(self, strategy):
        _assert_golden_searches(strategy, _seeded(strategy))

    def test_anneal_bit_identical_to_fixed_legacy(self):
        _assert_golden_searches("anneal", _seeded("anneal"))

    def test_anneal_explicit_temperature_bit_identical(self):
        _assert_golden_searches("anneal", ["anneal/explicit-temperature"])

    def test_auto_dispatch_matches_legacy_over_the_limit(self):
        """Past AUTO_PARTITION_LIMIT, auto falls back to greedy."""
        names, time_of = random_workload(0)
        result = run_search(names, 128, time_of)
        assert result.strategy == "greedy"
        expected = golden()["searches"]["auto"]["auto/over-the-limit"]
        assert search_fingerprint(result) == expected

    def test_every_golden_search_is_checked(self):
        checked = [key for s in SEARCH_STRATEGIES for key in _seeded(s)]
        checked += ["anneal/explicit-temperature", "auto/over-the-limit"]
        table = golden()["searches"]
        assert {key for keys in table.values() for key in keys} == set(checked)


# ----------------------------------------------------------------------
# Pipeline level on the benchmark SOCs.
# ----------------------------------------------------------------------


def _assert_golden(result, design, key):
    assert fingerprint(result) == golden()[design][key], (design, key)


class TestPipelineLevel:
    @pytest.mark.parametrize("design", ALL_DESIGNS)
    def test_auto_plan_bit_identical(self, design):
        soc = load_design(design)
        result = plan(soc, 16, RunConfig(compression="auto"))
        _assert_golden(result, design, "auto@16")

    @pytest.mark.parametrize("design", ALL_DESIGNS)
    def test_anneal_plan_bit_identical(self, design):
        soc = load_design(design)
        result = plan(soc, 16, RunConfig(compression="auto", strategy="anneal"))
        _assert_golden(result, design, "auto/anneal@16")

    @pytest.mark.parametrize("design", ["d695", "System1"])
    def test_greedy_plan_bit_identical(self, design):
        soc = load_design(design)
        result = plan(soc, 16, RunConfig(compression="auto", strategy="greedy"))
        _assert_golden(result, design, "auto/greedy@16")

    def test_search_opts_reach_the_backend(self):
        """Pipeline-carried hyperparameters reach the anneal backend."""
        soc = load_design("d695")
        config = RunConfig(
            compression="auto",
            strategy="anneal",
            search_opts=(("iterations", "900"), ("seed", "5")),
        )
        _assert_golden(
            plan(soc, 16, config), "d695", "auto/anneal(iterations=900,seed=5)@16"
        )
