"""Unit tests for the SOC-level ("virtual TAM") decompressor comparator."""

import pytest

from repro.core.architecture import DecompressorPlacement
from repro.pipeline import RunConfig, plan
from repro.core.soclevel import optimize_soc_level_decompressor
from repro.soc.core import Core
from repro.soc.soc import Soc


@pytest.fixture
def sparse_soc() -> Soc:
    cores = tuple(
        Core(
            name=f"c{i}",
            inputs=8,
            outputs=8,
            scan_chain_lengths=tuple([32] * (8 + 4 * i)),
            patterns=50,
            care_bit_density=0.03,
            seed=200 + i,
        )
        for i in range(3)
    )
    return Soc(name="sparse3", cores=cores)


class TestSocLevel:
    def test_rejects_too_few_channels(self, sparse_soc):
        with pytest.raises(ValueError):
            optimize_soc_level_decompressor(sparse_soc, 3)

    def test_placement_and_channels(self, sparse_soc):
        result = optimize_soc_level_decompressor(sparse_soc, 8)
        assert result.architecture.placement is DecompressorPlacement.SOC_LEVEL
        assert result.architecture.ate_channels == 8

    def test_internal_width_addressable(self, sparse_soc):
        with pytest.raises(ValueError, match="addressable"):
            optimize_soc_level_decompressor(sparse_soc, 6, internal_width=100)

    def test_internal_width_positive(self, sparse_soc):
        with pytest.raises(ValueError):
            optimize_soc_level_decompressor(sparse_soc, 8, internal_width=0)

    def test_time_at_least_internal_schedule(self, sparse_soc):
        result = optimize_soc_level_decompressor(sparse_soc, 8, internal_width=24)
        internal = plan(sparse_soc, 24, RunConfig(compression="none"))
        assert result.test_time >= internal.test_time

    def test_wide_internal_tam_reported(self, sparse_soc):
        result = optimize_soc_level_decompressor(sparse_soc, 8)
        # The expanded on-chip TAM is wider than the channel budget.
        assert result.architecture.total_tam_width > 8

    def test_uses_few_channels_effectively(self, sparse_soc):
        # The whole point of [18]: a few channels drive a wide virtual
        # TAM, so the test time beats the no-TDC plan at equal channels.
        soc_level = optimize_soc_level_decompressor(sparse_soc, 8)
        plain = plan(sparse_soc, 8, RunConfig(compression="none"))
        assert soc_level.test_time < plain.test_time

    def test_per_core_wins_at_equal_tam_wires(self, sparse_soc):
        """The paper's Table 2 claim, on a small instance."""
        wires = 24
        per_core = plan(sparse_soc, wires, RunConfig(compression="per-core"))
        from repro.compression.selective import code_parameters

        _, channels = code_parameters(wires)
        soc_level = optimize_soc_level_decompressor(
            sparse_soc, channels, internal_width=wires
        )
        assert per_core.test_time <= soc_level.test_time

    def test_volume_accounts_code_width(self, sparse_soc):
        result = optimize_soc_level_decompressor(sparse_soc, 8, internal_width=24)
        assert result.test_data_volume > 0
