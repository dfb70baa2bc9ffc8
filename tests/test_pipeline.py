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

    @pytest.mark.parametrize("flag", [True, False])
    def test_rejects_boolean_compression(self, flag):
        with pytest.raises(ValueError, match="unknown compression mode"):
            RunConfig(compression=flag)

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

    def test_explicit_stage_pairs_keep_flavor_names(self):
        constrained = RunConfig(architecture="constrained", schedule="constrained")
        assert pipeline_for(constrained).name == "constrained"
        packing = RunConfig(architecture="packing", schedule="packing")
        assert pipeline_for(packing).name == "packing+packing"
        verified = pipeline_for(packing.replace(verify=True))
        assert verified.name == "packing+packing+verify"

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
# LookupTables: one dense row per core, built in the decompressor stage
# ---------------------------------------------------------------------------


def _reference_best_for_tam(analysis, width):
    """Rescan every code width that fits: the prefix minimum's reference."""
    best = None
    for w in range(3, min(width, analysis.max_code_width) + 1):
        candidate = analysis.best_for_code_width(w)
        if candidate is not None and (
            best is None or candidate.test_time < best.test_time
        ):
            best = candidate
    return best


def _reference_pick(analysis, selector, compression, width):
    """The per-lookup policy rule the dense rows must reproduce.

    The mode's candidates in order -- plain scan, the best decompressor,
    the best dictionary -- and the first of least (test time, volume).
    """
    from repro.core.architecture import CoreConfig

    name = analysis.core.name
    plain = analysis.uncompressed_point(width)
    candidates = [
        CoreConfig(
            core_name=name,
            uses_compression=False,
            wrapper_chains=min(width, analysis.core.max_useful_wrapper_chains),
            code_width=None,
            test_time=plain.test_time,
            volume=plain.volume,
        )
    ]
    best = None if compression == "none" else _reference_best_for_tam(analysis, width)
    if best is not None:
        compressed = CoreConfig(
            core_name=name,
            uses_compression=True,
            wrapper_chains=best.m,
            code_width=best.code_width,
            test_time=best.test_time,
            volume=best.volume,
        )
        if compression == "per-core":
            return compressed
        candidates.append(compressed)
    dictionary = selector.dictionary_choice(width) if compression == "select" else None
    if dictionary is not None:
        candidates.append(
            CoreConfig(
                core_name=name,
                uses_compression=True,
                wrapper_chains=dictionary.wrapper_chains,
                code_width=dictionary.code_width,
                test_time=dictionary.test_time,
                volume=dictionary.volume,
                technique="dictionary",
            )
        )
    return min(candidates, key=lambda c: (c.test_time, c.volume))


def _tables(soc, compression, width):
    # Serial and uncached whatever REPRO_JOBS / REPRO_CACHE_DIR say, so
    # the tables, not precompute, fill the analyses.
    config = RunConfig(use_cache=False, jobs=1)
    analyses = config.analyses(soc.cores, max_tam_width=width)
    return LookupTables(analyses, compression, width)


class TestLookupTablesRows:
    @pytest.mark.parametrize("compression", ["per-core", "none", "auto", "select"])
    @pytest.mark.parametrize("design", ["tiny", "d695"])
    def test_rows_match_reference_rule(self, compression, design, tiny_soc):
        from repro.explore.dse import CoreAnalysis
        from repro.explore.selection import TechniqueSelector
        from repro.soc.industrial import load_design

        soc = tiny_soc if design == "tiny" else load_design(design)
        tables = _tables(soc, compression, 16)
        for core in soc.cores:
            # A fresh analysis shares no memo with the tables' one.
            reference = CoreAnalysis(core)
            selector = TechniqueSelector(reference)
            for width in range(1, 17):
                expected = _reference_pick(reference, selector, compression, width)
                config = tables.config_of(core.name, width)
                assert config == expected
                assert tables.config_of(core.name, width) is config
                assert tables.time_of(core.name, width) == expected.test_time

    @pytest.mark.parametrize("width", [0, 9])
    def test_widths_outside_the_budget_raise(self, tiny_soc, width):
        tables = _tables(tiny_soc, "per-core", 8)
        name = tiny_soc.cores[0].name
        with pytest.raises(ValueError):
            tables.time_of(name, width)
        with pytest.raises(ValueError):
            tables.config_of(name, width)

    def test_one_kernel_pass_per_core(self, tiny_soc, monkeypatch):
        from repro.explore import dse

        calls = []
        kernel = dse.exact_codeword_totals

        def counting(*args, **kwargs):
            calls.append(1)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(dse, "exact_codeword_totals", counting)
        _tables(tiny_soc, "per-core", 16)
        assert len(calls) == len(tiny_soc.cores)

    @pytest.mark.parametrize("compression", ["none", "auto", "select"])
    def test_warm_plan_designs_no_wrappers(self, compression, monkeypatch):
        """The second plan reads the uncompressed points the first made."""
        from repro.explore import dse
        from repro.soc.industrial import load_design

        soc = load_design("d695")
        config = RunConfig(compression=compression, use_cache=False, jobs=1)
        plan(soc, 16, config)
        calls = []
        batch = dse.design_wrappers_batch

        def counting(*args, **kwargs):
            calls.append(args)
            return batch(*args, **kwargs)

        monkeypatch.setattr(dse, "design_wrappers_batch", counting)
        plan(soc, 16, config)
        assert calls == []

    @pytest.mark.parametrize(
        "flow", ["standard", "packing", "power", "robust", "per-tam"]
    )
    def test_search_and_schedule_read_only_the_rows(
        self, tiny_soc, flow, monkeypatch
    ):
        from repro.explore.dse import CoreAnalysis

        ctx, stages = _after_the_tables(tiny_soc, flow)

        def forbidden(*args, **kwargs):
            raise AssertionError("analysis queried after the table stage")

        monkeypatch.setattr(CoreAnalysis, "_ensure_points", forbidden)
        monkeypatch.setattr(CoreAnalysis, "uncompressed_point", forbidden)
        monkeypatch.setattr(CoreAnalysis, "uncompressed_points", forbidden)
        for stage in stages:
            stage.run(ctx)
        assert ctx.architecture is not None

    @pytest.mark.parametrize(
        "flow",
        [
            "standard",
            "none",
            "packing",
            "power",
            "robust",
            "per-tam",
            "anneal",
            "evolutionary",
        ],
    )
    def test_search_and_schedule_call_no_lookup(
        self, tiny_soc, flow, monkeypatch
    ):
        """The loops read the rows; a plan reads only its winners' configs."""
        ctx, stages = _after_the_tables(tiny_soc, flow)
        calls = {"time_of": 0, "config_of": 0}

        def counting(method):
            original = getattr(LookupTables, method)

            def count(self, name, width):
                calls[method] += 1
                return original(self, name, width)

            monkeypatch.setattr(LookupTables, method, count)

        counting("time_of")
        counting("config_of")
        for stage in stages:
            stage.run(ctx)
        assert calls["time_of"] == 0
        assert calls["config_of"] <= len(ctx.architecture.scheduled)


def _after_the_tables(soc, flow):
    """A context past :class:`DecompressorStage`, and the flow's later stages."""
    from repro.pipeline.events import EventRecorder
    from repro.pipeline.stages import PlanContext
    from repro.power.model import power_table

    config = RunConfig(use_cache=False)
    if flow == "packing":
        config = config.replace(architecture="packing", schedule="packing")
    elif flow == "power":
        budget = 0.6 * sum(power_table(soc, compression=True).values())
        config = config.replace(power_budget=budget)
    elif flow in ("none", "per-tam"):
        config = config.replace(compression=flow)
    elif flow == "anneal":
        config = config.replace(strategy=flow, search_opts=(("iterations", "200"),))
    elif flow == "evolutionary":
        config = config.replace(
            strategy=flow,
            search_opts=(("generations", "3"), ("population", "6")),
            power_of={core.name: 1.0 + index for index, core in enumerate(soc.cores)},
            architecture="evolutionary",
            schedule="list",
        )
    stages = list(pipeline_for(config).stages)
    if flow == "robust":
        stages[2] = stage_factory("architecture", "robust")()
    ctx = PlanContext(soc, 12, config, EventRecorder())
    WrapperStage().run(ctx)
    DecompressorStage().run(ctx)
    return ctx, stages[2:]
