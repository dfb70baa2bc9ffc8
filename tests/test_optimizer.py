"""Integration-grade unit tests for the co-optimizer."""

import pytest

from repro.core.architecture import DecompressorPlacement
from repro.pipeline import RunConfig, plan
from repro.soc.core import Core
from repro.soc.soc import Soc


@pytest.fixture
def sparse_soc() -> Soc:
    """Three sparse cores: the compression-friendly regime."""
    cores = tuple(
        Core(
            name=f"c{i}",
            inputs=8,
            outputs=8,
            scan_chain_lengths=tuple([30 + 4 * i] * (10 + 2 * i)),
            patterns=40 + 10 * i,
            care_bit_density=0.03,
            seed=100 + i,
        )
        for i in range(3)
    )
    return Soc(name="sparse3", cores=cores)


class TestOptimizeSoc:
    def test_rejects_zero_width(self, tiny_soc):
        with pytest.raises(ValueError):
            plan(tiny_soc, 0)

    def test_rejects_bad_compression(self, tiny_soc):
        with pytest.raises(ValueError, match="compression"):
            plan(tiny_soc, 8, RunConfig(compression="maybe"))

    def test_schedule_covers_every_core(self, tiny_soc):
        result = plan(tiny_soc, 8, RunConfig(compression="none"))
        scheduled = {s.config.core_name for s in result.architecture.scheduled}
        assert scheduled == set(tiny_soc.core_names)

    def test_width_budget_respected(self, tiny_soc):
        for width in (4, 9, 16):
            result = plan(tiny_soc, width, RunConfig(compression="none"))
            assert sum(result.tam_widths) <= width

    def test_time_non_increasing_in_width(self, sparse_soc):
        times = [
            plan(sparse_soc, w, RunConfig(compression="per-core")).test_time
            for w in (6, 12, 24)
        ]
        assert times[0] >= times[1] >= times[2]

    def test_compression_helps_sparse_soc(self, sparse_soc):
        plain = plan(sparse_soc, 12, RunConfig(compression="none"))
        packed = plan(sparse_soc, 12, RunConfig(compression="per-core"))
        assert packed.test_time < plain.test_time
        assert packed.test_data_volume < plain.test_data_volume

    def test_auto_never_worse_than_either_pure_mode(self, tiny_soc):
        plain = plan(tiny_soc, 10, RunConfig(compression="none"))
        packed = plan(tiny_soc, 10, RunConfig(compression="per-core"))
        auto = plan(tiny_soc, 10, RunConfig(compression="auto"))
        assert auto.test_time <= min(plain.test_time, packed.test_time)

    def test_placement_flags(self, sparse_soc):
        plain = plan(sparse_soc, 8, RunConfig(compression="none"))
        packed = plan(sparse_soc, 8, RunConfig(compression="per-core"))
        assert plain.architecture.placement is DecompressorPlacement.NONE
        assert packed.architecture.placement is DecompressorPlacement.PER_CORE

    def test_compressed_configs_record_decompressor(self, sparse_soc):
        result = plan(sparse_soc, 12, RunConfig(compression="per-core"))
        for slot in result.architecture.scheduled:
            config = slot.config
            if config.uses_compression:
                assert config.code_width is not None
                assert config.code_width <= max(result.tam_widths)
                assert config.wrapper_chains > config.code_width

    def test_narrow_tam_falls_back_to_uncompressed(self, sparse_soc):
        # Width 2 cannot host a w >= 3 code anywhere.
        result = plan(sparse_soc, 2, RunConfig(compression="per-core"))
        assert all(
            not s.config.uses_compression for s in result.architecture.scheduled
        )

    def test_cpu_time_recorded(self, sparse_soc):
        result = plan(sparse_soc, 8, RunConfig(compression="per-core"))
        assert result.cpu_seconds > 0

    def test_strategy_forwarded(self, sparse_soc):
        greedy = plan(sparse_soc, 8, RunConfig(compression="none", strategy="greedy"))
        assert greedy.strategy == "greedy"

    def test_max_tams_respected(self, sparse_soc):
        result = plan(sparse_soc, 12, RunConfig(compression="none", max_tams=2))
        assert len(result.tam_widths) <= 2

    def test_makespan_equals_architecture_time(self, sparse_soc):
        result = plan(sparse_soc, 10, RunConfig(compression="per-core"))
        finishes = result.architecture.tam_finish_times().values()
        assert result.test_time == max(finishes)


class TestOptimizePerTam:
    def test_rejects_too_few_channels(self, sparse_soc):
        with pytest.raises(ValueError):
            plan(sparse_soc, 2, RunConfig(compression="per-tam"))

    def test_placement(self, sparse_soc):
        result = plan(sparse_soc, 9, RunConfig(compression="per-tam"))
        assert result.architecture.placement is DecompressorPlacement.PER_TAM

    def test_cores_on_same_tam_share_width(self, sparse_soc):
        result = plan(sparse_soc, 9, RunConfig(compression="per-tam"))
        width_of = {t.index: t.width for t in result.architecture.tams}
        for slot in result.architecture.scheduled:
            config = slot.config
            useful = sparse_soc.core(config.core_name).max_useful_wrapper_chains
            expected = min(width_of[slot.tam_index], useful)
            assert config.wrapper_chains == expected

    def test_expanded_tams_wider_than_channels(self, sparse_soc):
        result = plan(sparse_soc, 9, RunConfig(compression="per-tam"))
        assert result.architecture.total_tam_width > 9

    def test_per_core_never_slower_than_per_tam(self, sparse_soc):
        per_core = plan(sparse_soc, 9, RunConfig(compression="per-core"))
        per_tam = plan(sparse_soc, 9, RunConfig(compression="per-tam"))
        # Per-core decompression strictly generalizes the per-TAM choice
        # given identical partitioning freedom; allow small slack for the
        # different partition spaces (per-TAM parts must be >= 3).
        assert per_core.test_time <= per_tam.test_time * 1.05
