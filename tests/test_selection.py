"""Tests for per-core compression-technique selection."""

import pytest

from repro.pipeline import RunConfig, plan
from repro.explore.dse import CoreAnalysis, analysis_for
from repro.explore.selection import TechniqueSelector, select_technique
from repro.soc.core import Core
from repro.soc.soc import Soc


class TestSelectTechnique:
    def test_picks_minimum_time(self, sparse_core):
        analysis = analysis_for(sparse_core)
        choice = select_technique(analysis, 8)
        plain = analysis.uncompressed_point(8).test_time
        selective = analysis.best_compressed_for_tam(8).test_time
        assert choice.test_time <= min(plain, selective)
        assert choice.technique in ("none", "selective", "dictionary")

    def test_dense_core_keeps_none_or_dictionary(self, comb_core):
        analysis = analysis_for(comb_core)
        choice = select_technique(analysis, 4)
        # 70% care density: selective encoding must not win.
        assert choice.technique != "selective"

    def test_estimate_mode_skips_dictionary(self):
        big = Core(
            name="big",
            inputs=10,
            outputs=10,
            scan_chain_lengths=(500,) * 100,
            patterns=2000,
            care_bit_density=0.02,
        )
        analysis = CoreAnalysis(big)  # auto -> estimate
        selector = TechniqueSelector(analysis)
        assert selector.dictionary_choice(8) is None
        assert selector.select(8).technique in ("none", "selective")

    def test_selector_caches_choices(self, sparse_core):
        selector = TechniqueSelector(analysis_for(sparse_core))
        assert selector.select(8) is selector.select(8)

    def test_dictionary_fields_populated(self, sparse_core):
        selector = TechniqueSelector(analysis_for(sparse_core))
        choice = selector.dictionary_choice(8)
        assert choice is not None
        assert choice.index_bits in (4, 8)
        assert 0.0 <= choice.hit_rate <= 1.0
        assert choice.code_width == 8

    def test_choice_consistent_with_config_rules(self, sparse_core):
        choice = select_technique(analysis_for(sparse_core), 6)
        if choice.technique == "none":
            assert choice.code_width is None
        else:
            assert choice.code_width is not None


class TestSelectModeOptimizer:
    @pytest.fixture
    def mixed_soc(self, sparse_core, comb_core, small_core):
        return Soc(name="mixed", cores=(sparse_core, comb_core, small_core))

    def test_select_never_worse_than_auto(self, mixed_soc):
        auto = plan(mixed_soc, 10, RunConfig(compression="auto"))
        select = plan(mixed_soc, 10, RunConfig(compression="select"))
        assert select.test_time <= auto.test_time

    def test_techniques_recorded(self, mixed_soc):
        result = plan(mixed_soc, 10, RunConfig(compression="select"))
        techniques = {
            s.config.core_name: s.config.technique
            for s in result.architecture.scheduled
        }
        assert set(techniques) == set(mixed_soc.core_names)
        assert all(
            t in ("none", "selective", "dictionary") for t in techniques.values()
        )

    def test_default_technique_resolution(self):
        from repro.core.architecture import CoreConfig

        plain = CoreConfig(
            core_name="a",
            uses_compression=False,
            wrapper_chains=2,
            code_width=None,
            test_time=1,
            volume=1,
        )
        assert plain.technique == "none"
        packed = CoreConfig(
            core_name="a",
            uses_compression=True,
            wrapper_chains=8,
            code_width=5,
            test_time=1,
            volume=1,
        )
        assert packed.technique == "selective"

    def test_technique_validation(self):
        from repro.core.architecture import CoreConfig

        with pytest.raises(ValueError, match="unknown technique"):
            CoreConfig(
                core_name="a",
                uses_compression=True,
                wrapper_chains=8,
                code_width=5,
                test_time=1,
                volume=1,
                technique="huffman",
            )
        with pytest.raises(ValueError, match="requires uses_compression"):
            CoreConfig(
                core_name="a",
                uses_compression=False,
                wrapper_chains=8,
                code_width=None,
                test_time=1,
                volume=1,
                technique="dictionary",
            )
