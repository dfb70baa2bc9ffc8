"""Tests for flexible scan re-stitching."""

import pytest

from repro.explore.dse import analysis_for
from repro.soc.core import Core
from repro.wrapper.stitching import StitchingChoice, best_stitching, restitch


@pytest.fixture
def long_chain_core() -> Core:
    """A soft core stuck with two very long chains."""
    return Core(
        name="soft",
        inputs=8,
        outputs=8,
        scan_chain_lengths=(400, 400),
        patterns=40,
        care_bit_density=0.03,
        one_fraction=0.3,
        seed=17,
    )


class TestRestitch:
    def test_preserves_cell_count(self, long_chain_core):
        variant = restitch(long_chain_core, 16)
        assert variant.scan_cells == long_chain_core.scan_cells
        assert variant.num_scan_chains == 16

    def test_balanced(self, long_chain_core):
        variant = restitch(long_chain_core, 7)
        lengths = variant.scan_chain_lengths
        assert max(lengths) - min(lengths) <= 1

    def test_name_annotated(self, long_chain_core):
        assert restitch(long_chain_core, 4).name == "soft@4ch"

    def test_preserves_seed_and_patterns(self, long_chain_core):
        variant = restitch(long_chain_core, 4)
        assert variant.seed == long_chain_core.seed
        assert variant.patterns == long_chain_core.patterns

    def test_bounds(self, long_chain_core):
        with pytest.raises(ValueError):
            restitch(long_chain_core, 0)
        with pytest.raises(ValueError):
            restitch(long_chain_core, long_chain_core.scan_cells + 1)

    def test_combinational_rejected(self, comb_core):
        with pytest.raises(ValueError, match="no scan cells"):
            restitch(comb_core, 2)


class TestBestStitching:
    def test_restitching_helps_long_chains(self, long_chain_core):
        choice = best_stitching(long_chain_core, 8, compression="per-core")
        assert isinstance(choice, StitchingChoice)
        # Two 400-cell chains floor si at 400; re-stitching removes it.
        assert choice.best_time < choice.original_time
        assert choice.best_chains > 2
        assert choice.speedup > 1.5

    def test_never_worse_than_original(self):
        core = Core(
            name="fine",
            inputs=4,
            outputs=4,
            scan_chain_lengths=(25,) * 32,
            patterns=30,
            care_bit_density=0.03,
            seed=5,
        )
        choice = best_stitching(core, 8, compression="per-core")
        # Even a balanced stitching can gain (more, shorter chains means
        # fewer scan slices and fewer per-slice END codewords), but the
        # sweep must never return something slower than the original.
        assert choice.best_time <= choice.original_time

    def test_no_compression_mode(self, long_chain_core):
        choice = best_stitching(long_chain_core, 8, compression="none")
        analysis = analysis_for(choice.core)
        assert choice.best_time == analysis.time_at_tam(8, compression="none")

    def test_max_chains_cap(self, long_chain_core):
        choice = best_stitching(long_chain_core, 8, max_chains=16)
        assert choice.best_chains <= 16

    def test_combinational_rejected(self, comb_core):
        with pytest.raises(ValueError):
            best_stitching(comb_core, 4)
