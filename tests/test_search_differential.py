"""Differential proof: the ``repro.search`` backends reproduce the
pre-refactor search.

``tests/_legacy_search.py`` freezes the partition search and the
annealer exactly as they stood before the backend layer existed.
These tests run the refactored stack next to that copy and require
*bit-identical* :class:`PartitionSearchResult`s (frozen dataclass
equality: same outcome, same ``partitions_evaluated``, same strategy
string) and, at the pipeline level, bit-identical
:class:`PlanResult`s on the six benchmark SOCs -- ``cpu_seconds`` and
the observability ``report`` are the only fields allowed to differ.

The anneal backend is pinned against ``legacy_anneal_search_fixed``:
the shipped annealer with *only* the cooling line moved, the one
intentional behavior change of the refactor (see
``tests/test_search_backends.py`` for the cooling-fix regression
tests themselves).

``REPRO_FUZZ_SEEDS`` widens the random sweeps in CI.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

import _legacy_search as legacy
from repro.pipeline import Pipeline, RunConfig, plan
from repro.pipeline.stages import (
    DecompressorStage,
    Stage,
    WrapperStage,
    stage_factory,
)
from repro.search import run_search
from repro.soc.industrial import load_design

ALL_DESIGNS = ("d695", "d2758", "System1", "System2", "System3", "System4")

FUZZ_SEEDS = int(os.environ.get("REPRO_FUZZ_SEEDS", 24))


# ----------------------------------------------------------------------
# Synthetic workloads: cheap, deterministic time functions.
# ----------------------------------------------------------------------


def _random_workload(seed: int):
    """(core names, time_of) with ceil-divide scaling plus a floor."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 11))
    names = [f"c{i}" for i in range(n)]
    base = {name: int(rng.integers(40, 4000)) for name in names}
    floor = {name: int(rng.integers(1, 30)) for name in names}

    def time_of(name: str, width: int) -> int:
        return -(-base[name] // width) + floor[name]

    return names, time_of


def _assert_same_search(new, old):
    assert new == old, f"search diverged:\n  new={new}\n  old={old}"


# ----------------------------------------------------------------------
# Function-level differential on random workloads.
# ----------------------------------------------------------------------


class TestFunctionLevel:
    @pytest.mark.parametrize("strategy", ["auto", "exhaustive", "greedy"])
    def test_enumerative_strategies_bit_identical(self, strategy):
        for seed in range(FUZZ_SEEDS):
            names, time_of = _random_workload(seed)
            rng = np.random.default_rng(1000 + seed)
            width = int(rng.integers(4, 25))
            max_parts = (
                None if rng.random() < 0.5 else int(rng.integers(1, 6))
            )
            min_width = int(rng.integers(1, 3))
            if width < min_width:
                continue
            kwargs = dict(max_parts=max_parts, min_width=min_width)
            if max_parts is not None and width // min_width < 1:
                continue
            try:
                old = legacy.legacy_search_partitions(
                    names, width, time_of, strategy=strategy, **kwargs
                )
            except ValueError:
                with pytest.raises(ValueError):
                    run_search(
                        names, width, time_of, strategy=strategy, **kwargs
                    )
                continue
            new = run_search(
                names, width, time_of, strategy=strategy, **kwargs
            )
            _assert_same_search(new, old)

    def test_anneal_bit_identical_to_fixed_legacy(self):
        for seed in range(FUZZ_SEEDS):
            names, time_of = _random_workload(seed)
            rng = np.random.default_rng(2000 + seed)
            width = int(rng.integers(4, 25))
            opts = dict(
                iterations=300,
                cooling=0.995,
                seed=int(rng.integers(0, 1 << 16)),
            )
            old = legacy.legacy_anneal_search_fixed(
                names, width, time_of, **opts
            )
            new = run_search(
                names, width, time_of, strategy="anneal", options=opts
            )
            _assert_same_search(new, old)

    def test_anneal_explicit_temperature_bit_identical(self):
        names, time_of = _random_workload(3)
        old = legacy.legacy_anneal_search_fixed(
            names, 12, time_of, iterations=500, initial_temperature=50.0,
            seed=9,
        )
        new = run_search(
            names, 12, time_of, strategy="anneal",
            options=dict(
                iterations=500, initial_temperature=50.0, seed=9
            ),
        )
        _assert_same_search(new, old)

    def test_scalar_kernels_bit_identical(self, monkeypatch):
        """REPRO_SCALAR_KERNELS exercises the per-call time_of path."""
        monkeypatch.setenv("REPRO_SCALAR_KERNELS", "1")
        for seed in range(min(FUZZ_SEEDS, 8)):
            names, time_of = _random_workload(seed)
            for strategy in ("exhaustive", "greedy"):
                old = legacy.legacy_search_partitions(
                    names, 14, time_of, strategy=strategy
                )
                new = run_search(names, 14, time_of, strategy=strategy)
                _assert_same_search(new, old)

    def test_auto_dispatch_matches_legacy_over_the_limit(self):
        """Past AUTO_PARTITION_LIMIT both stacks fall back to greedy."""
        names, time_of = _random_workload(0)
        old = legacy.legacy_search_partitions(names, 128, time_of)
        new = run_search(names, 128, time_of)
        assert old.strategy == "greedy"
        _assert_same_search(new, old)


# ----------------------------------------------------------------------
# Pipeline-level differential on the benchmark SOCs.
# ----------------------------------------------------------------------


class _LegacyArchitectureStage(Stage):
    """Step 3 exactly as it ran before the search layer existed."""

    name = "architecture"

    def __init__(self, strategy: str = "auto", anneal: bool = False) -> None:
        self.strategy = strategy
        self.anneal = anneal

    def run(self, ctx) -> None:
        config = ctx.config
        assert ctx.tables is not None
        if self.anneal:
            search = legacy.legacy_anneal_search_fixed(
                ctx.names,
                ctx.width_budget,
                ctx.tables.time_of,
                max_parts=config.max_tams,
                min_width=config.min_tam_width,
            )
        else:
            search = legacy.legacy_search_partitions(
                ctx.names,
                ctx.width_budget,
                ctx.tables.time_of,
                max_parts=config.max_tams,
                min_width=config.min_tam_width,
                strategy=self.strategy,
            )
        ctx.search = search
        ctx.partitions_evaluated = search.partitions_evaluated
        ctx.strategy = search.strategy


def _legacy_plan(soc, width, config, *, strategy="auto", anneal=False):
    pipeline = Pipeline(
        [
            WrapperStage(),
            DecompressorStage(),
            _LegacyArchitectureStage(strategy=strategy, anneal=anneal),
            stage_factory("schedule", "list")(),
        ],
        name="legacy-search",
    )
    return pipeline.run(soc, width, config)


def _assert_same_plan(new, old):
    assert new.architecture == old.architecture
    assert new.soc_name == old.soc_name
    assert new.width_budget == old.width_budget
    assert new.compression == old.compression
    assert new.partitions_evaluated == old.partitions_evaluated
    assert new.strategy == old.strategy
    assert new.test_time == old.test_time
    assert new.test_data_volume == old.test_data_volume
    assert new.tam_widths == old.tam_widths


class TestPipelineLevel:
    @pytest.mark.parametrize("design", ALL_DESIGNS)
    def test_auto_plan_bit_identical(self, design):
        soc = load_design(design)
        config = RunConfig(compression="auto")
        new = plan(soc, 16, config)
        old = _legacy_plan(soc, 16, config)
        _assert_same_plan(new, old)

    @pytest.mark.parametrize("design", ALL_DESIGNS)
    def test_anneal_plan_bit_identical(self, design):
        soc = load_design(design)
        new = plan(soc, 16, RunConfig(compression="auto", strategy="anneal"))
        old = _legacy_plan(
            soc, 16, RunConfig(compression="auto"), anneal=True
        )
        _assert_same_plan(new, old)

    @pytest.mark.parametrize("design", ["d695", "System1"])
    def test_greedy_plan_bit_identical(self, design):
        soc = load_design(design)
        new = plan(soc, 16, RunConfig(compression="auto", strategy="greedy"))
        old = _legacy_plan(
            soc, 16, RunConfig(compression="auto"), strategy="greedy"
        )
        _assert_same_plan(new, old)

    def test_search_opts_reach_the_backend(self):
        """Pipeline-carried hyperparameters match direct legacy calls."""
        soc = load_design("d695")
        new = plan(
            soc,
            16,
            RunConfig(
                compression="auto",
                strategy="anneal",
                search_opts=(("iterations", "900"), ("seed", "5")),
            ),
        )
        config = RunConfig(compression="auto")
        pipeline = Pipeline(
            [
                WrapperStage(),
                DecompressorStage(),
                _ParamAnnealStage(iterations=900, seed=5),
                stage_factory("schedule", "list")(),
            ],
            name="legacy-search",
        )
        old = pipeline.run(soc, 16, config)
        _assert_same_plan(new, old)


class _ParamAnnealStage(Stage):
    name = "architecture"

    def __init__(self, **opts) -> None:
        self.opts = opts

    def run(self, ctx) -> None:
        search = legacy.legacy_anneal_search_fixed(
            ctx.names,
            ctx.width_budget,
            ctx.tables.time_of,
            max_parts=ctx.config.max_tams,
            min_width=ctx.config.min_tam_width,
            **self.opts,
        )
        ctx.search = search
        ctx.partitions_evaluated = search.partitions_evaluated
        ctx.strategy = search.strategy
