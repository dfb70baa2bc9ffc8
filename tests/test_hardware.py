"""Unit tests for the decompressor hardware cost model."""

import pytest

from repro.core.hardware import (
    CONTROLLER_FLIP_FLOPS,
    CONTROLLER_GATES,
    DecompressorCost,
    architecture_hardware_cost,
    decompressor_cost,
)
from repro.pipeline import RunConfig, plan
from repro.soc.core import Core
from repro.soc.soc import Soc


class TestDecompressorCost:
    def test_controller_floor(self):
        cost = decompressor_cost(1)
        assert cost.flip_flops > CONTROLLER_FLIP_FLOPS
        assert cost.gates > CONTROLLER_GATES

    def test_scales_with_outputs(self):
        small = decompressor_cost(16)
        large = decompressor_cost(256)
        assert large.flip_flops > small.flip_flops
        assert large.gates > small.gates

    def test_explicit_width_accepted(self):
        cost = decompressor_cost(100, w=12)
        assert cost.code_width == 12

    def test_narrow_width_rejected(self):
        with pytest.raises(ValueError, match="too narrow"):
            decompressor_cost(100, w=5)

    def test_sub_percent_of_million_gates(self):
        # The paper: "for larger than million-gate designs ... only 1%".
        cost = decompressor_cost(255)
        assert cost.area_fraction(1_000_000) < 0.01

    def test_area_fraction_needs_positive_gates(self):
        with pytest.raises(ValueError):
            decompressor_cost(8).area_fraction(0)


class TestArchitectureCost:
    @pytest.fixture
    def sparse_soc(self):
        cores = tuple(
            Core(
                name=f"c{i}",
                inputs=8,
                outputs=8,
                scan_chain_lengths=tuple([32] * 10),
                patterns=40,
                care_bit_density=0.03,
                seed=300 + i,
            )
            for i in range(3)
        )
        return Soc(name="s", cores=cores)

    def test_uncompressed_architecture_costs_nothing(self, sparse_soc):
        result = plan(sparse_soc, 8, RunConfig(compression="none"))
        cost = architecture_hardware_cost(result.architecture)
        assert cost.gates == 0 and cost.flip_flops == 0

    def test_per_core_counts_every_core(self, sparse_soc):
        result = plan(sparse_soc, 12, RunConfig(compression="per-core"))
        compressed = [
            s for s in result.architecture.scheduled if s.config.uses_compression
        ]
        cost = architecture_hardware_cost(result.architecture)
        individual = sum(
            decompressor_cost(s.config.wrapper_chains, s.config.code_width).gates
            for s in compressed
        )
        assert cost.gates == individual

    def test_per_tam_counts_once_per_tam(self, sparse_soc):
        result = plan(sparse_soc, 9, RunConfig(compression="per-tam"))
        cost = architecture_hardware_cost(result.architecture)
        tams_used = {
            s.tam_index
            for s in result.architecture.scheduled
            if s.config.uses_compression
        }
        assert cost.gates <= len(tams_used) * decompressor_cost(
            max(t.width for t in result.architecture.tams)
        ).gates
        assert cost.gates > 0

    def test_returns_dataclass(self, sparse_soc):
        result = plan(sparse_soc, 8, RunConfig(compression="per-core"))
        assert isinstance(architecture_hardware_cost(result.architecture), DecompressorCost)
