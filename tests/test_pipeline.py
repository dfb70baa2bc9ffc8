"""Unit tests for the staged pipeline: config, registry, tables."""

from __future__ import annotations

import pytest

from repro.core.robust import robust_plan
from repro.pipeline import (
    ArchitectureStage,
    DecompressorStage,
    LookupTables,
    Pipeline,
    PlanResult,
    RunConfig,
    ScheduleStage,
    Stage,
    WrapperStage,
    available_stages,
    normalize_compression,
    pipeline_for,
    plan,
    register_stage,
    stage_factory,
    unregister_stage,
)
from repro.reporting.export import result_from_json, result_to_json


# ---------------------------------------------------------------------------
# RunConfig
# ---------------------------------------------------------------------------


class TestRunConfig:
    def test_defaults_are_standard_flow(self):
        config = RunConfig()
        assert config.compression == "per-core"
        assert not config.is_constrained

    def test_rejects_unknown_compression(self):
        with pytest.raises(ValueError, match="compression"):
            RunConfig(compression="zip")

    def test_rejects_bad_min_tam_width(self):
        with pytest.raises(ValueError, match="min_tam_width"):
            RunConfig(min_tam_width=0)

    def test_normalize_compression_bools(self):
        assert normalize_compression(True) == "per-core"
        assert normalize_compression(False) == "none"
        with pytest.raises(ValueError, match="compression"):
            normalize_compression("bogus")

    def test_precedence_normalized_to_tuples(self):
        config = RunConfig(precedence=[["a", "b"], ("c", "d")])
        assert config.precedence == (("a", "b"), ("c", "d"))
        assert config.is_constrained

    def test_replace_returns_new_frozen_config(self):
        config = RunConfig()
        other = config.replace(jobs=4, compression="auto")
        assert other.jobs == 4
        assert other.compression == "auto"
        assert config.jobs is None  # original untouched
        with pytest.raises(AttributeError):
            other.jobs = 8

    def test_resolve_cache_honors_use_cache_false(self, tmp_path):
        config = RunConfig(cache_dir=str(tmp_path), use_cache=False)
        assert config.resolve_cache() is None

    def test_resolve_cache_explicit_dir(self, tmp_path):
        config = RunConfig(cache_dir=str(tmp_path))
        cache = config.resolve_cache()
        assert cache is not None
        assert str(tmp_path) in str(cache.directory)

    def test_is_constrained_flags(self):
        assert RunConfig(power_budget=10.0).is_constrained
        assert RunConfig(power_of={"a": 1.0}).is_constrained
        assert not RunConfig().is_constrained


# ---------------------------------------------------------------------------
# Pipeline assembly and routing
# ---------------------------------------------------------------------------


class TestPipelineRouting:
    def test_pipeline_for_standard(self):
        assert pipeline_for(RunConfig()).name == "standard"

    def test_pipeline_for_constrained(self):
        assert pipeline_for(RunConfig(power_budget=5.0)).name == "constrained"

    def test_pipeline_for_per_tam(self):
        assert pipeline_for(RunConfig(compression="per-tam")).name == "per-tam"

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ValueError, match="at least one stage"):
            Pipeline([])

    def test_pipeline_without_schedule_stage_fails(self, tiny_soc):
        incomplete = Pipeline([WrapperStage(), DecompressorStage()])
        with pytest.raises(RuntimeError, match="architecture"):
            incomplete.run(tiny_soc, 8, RunConfig())

    def test_plan_produces_plan_result(self, tiny_soc):
        result = plan(tiny_soc, 8, RunConfig(compression="auto"))
        assert isinstance(result, PlanResult)
        assert result.soc_name == "tiny"
        assert result.width_budget == 8
        assert result.test_time > 0
        assert sum(result.tam_widths) <= 8
        stages = [name for name, _ in result.stage_timings]
        assert stages == ["wrapper", "decompressor", "architecture", "schedule"]
        assert result.cpu_seconds >= sum(s for _, s in result.stage_timings)


# ---------------------------------------------------------------------------
# Stage registry
# ---------------------------------------------------------------------------


class TestStageRegistry:
    def test_builtin_stages_registered(self):
        stages = available_stages()
        assert "partition" in stages["architecture"]
        assert "anneal" in stages["architecture"]
        assert "constrained" in stages["architecture"]
        assert "per-tam" in stages["architecture"]
        assert "robust" in stages["architecture"]
        assert "list" in stages["schedule"]
        assert "constrained" in stages["schedule"]

    def test_unknown_slot_rejected(self):
        with pytest.raises(ValueError, match="slot"):
            register_stage("wrapper", "custom", WrapperStage)

    def test_unknown_name_lists_registered(self):
        with pytest.raises(KeyError, match="partition"):
            stage_factory("architecture", "does-not-exist")

    def test_custom_stage_plugs_in(self, tiny_soc):
        """A drop-in architecture stage runs inside the standard flow."""

        class WidestFirstStage(Stage):
            name = "architecture"

            def run(self, ctx):
                from repro.search import run_search

                ctx.search = run_search(
                    ctx.names,
                    ctx.width_budget,
                    ctx.tables.time_of,
                    max_parts=1,  # single TAM: trivially valid partition
                    min_width=1,
                    strategy="exhaustive",
                )
                ctx.partitions_evaluated = ctx.search.partitions_evaluated
                ctx.strategy = "single-tam"

        register_stage("architecture", "single-tam", WidestFirstStage)
        try:
            pipeline = Pipeline.from_registry("single-tam", "list")
            result = pipeline.run(tiny_soc, 8, RunConfig(compression="auto"))
            assert result.strategy == "single-tam"
            assert result.tam_widths == (8,)
        finally:
            unregister_stage("architecture", "single-tam")
        assert "single-tam" not in available_stages()["architecture"]

    def test_anneal_stage_produces_valid_plan(self, tiny_soc):
        pipeline = Pipeline.from_registry("anneal", "list")
        result = pipeline.run(tiny_soc, 8, RunConfig(compression="auto"))
        assert result.strategy == "anneal"
        assert result.test_time > 0
        assert sum(result.tam_widths) <= 8

    def test_exhaustive_matches_standard_auto_on_small_soc(self, tiny_soc):
        """Auto resolves to exhaustive at this size: same plan either way."""
        config = RunConfig(compression="auto")
        via_auto = plan(tiny_soc, 8, config)
        via_registry = Pipeline.from_registry("exhaustive", "list").run(
            tiny_soc, 8, config
        )
        assert via_registry.architecture == via_auto.architecture


# ---------------------------------------------------------------------------
# Robust planning through the pipeline
# ---------------------------------------------------------------------------


class TestRobustStage:
    def test_robust_plan_reports_both_makespans(self, tiny_soc):
        robust = robust_plan(tiny_soc, 8, epsilon=0.2)
        assert robust.result.strategy.startswith("robust-")
        assert robust.worst_case_makespan >= robust.nominal_makespan
        assert robust.regret >= 1.0
        assert robust.epsilon == 0.2

    def test_robust_result_round_trips(self, tiny_soc):
        robust = robust_plan(tiny_soc, 8)
        restored = result_from_json(result_to_json(robust.result))
        assert restored == robust.result


# ---------------------------------------------------------------------------
# LookupTables: bounded LRU memo layers (satellite 1)
# ---------------------------------------------------------------------------


class TestLookupTablesBounds:
    def _tables(self, soc, compression="auto"):
        config = RunConfig(compression=compression)
        analyses = config.analyses(soc.cores, max_tam_width=8)
        return LookupTables(analyses, compression)

    def test_time_cache_is_bounded(self, tiny_soc):
        tables = self._tables(tiny_soc)
        tables.time_cache_max_entries = 4
        for width in range(1, 9):
            for name in tables.analyses:
                tables.time_of(name, width)
        info = tables.cache_info()
        assert info["time_entries"] <= 4
        assert info["evictions"] > 0

    def test_eviction_is_lru_ordered(self, tiny_soc):
        tables = self._tables(tiny_soc)
        tables.time_cache_max_entries = 2
        names = list(tables.analyses)
        tables.time_of(names[0], 1)
        tables.time_of(names[0], 2)
        tables.time_of(names[0], 1)  # refresh (name, 1)
        tables.time_of(names[0], 3)  # evicts (name, 2), not (name, 1)
        assert (names[0], 1) in tables._time_cache
        assert (names[0], 2) not in tables._time_cache

    def test_selector_cache_is_bounded(self, tiny_soc):
        tables = self._tables(tiny_soc, compression="select")
        tables.selector_cache_max_entries = 1
        for name in tables.analyses:
            tables.config_of(name, 4)
        info = tables.cache_info()
        assert info["selector_entries"] <= 1

    def test_eviction_does_not_change_answers(self, tiny_soc):
        unbounded = self._tables(tiny_soc)
        bounded = self._tables(tiny_soc)
        bounded.time_cache_max_entries = 1
        for width in (1, 3, 5, 3, 1):
            for name in unbounded.analyses:
                assert bounded.time_of(name, width) == unbounded.time_of(
                    name, width
                )

    def test_hit_and_miss_counters(self, tiny_soc):
        tables = self._tables(tiny_soc)
        name = next(iter(tables.analyses))
        tables.time_of(name, 4)
        tables.time_of(name, 4)
        info = tables.cache_info()
        assert info["misses"] >= 1
        assert info["hits"] >= 1
