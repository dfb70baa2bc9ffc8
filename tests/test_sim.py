"""Tests for the cycle-accurate architecture simulator."""

import numpy as np
import pytest

import repro
from repro.core.architecture import CoreConfig
from repro.compression.cubes import generate_cubes
from repro.sim.components import CoreSimulator, SimulationError, WrapperChainRegister
from repro.sim.simulator import simulate_architecture
from repro.soc.core import Core
from repro.soc.soc import Soc
from repro.wrapper.design import design_wrapper
from repro.wrapper.timing import scan_test_time


class TestWrapperChainRegister:
    def test_shift_order(self):
        reg = WrapperChainRegister(3)
        for bit in (1, 0, 1, 1):
            reg.shift_in(bit)
        # Last three bits shifted: 0, 1, 1 -> in shift order [0, 1, 1].
        assert reg.loaded_sequence() == [0, 1, 1]

    def test_contents_most_recent_first(self):
        reg = WrapperChainRegister(2)
        reg.shift_in(1)
        reg.shift_in(0)
        assert reg.contents == [0, 1]

    def test_zero_length(self):
        reg = WrapperChainRegister(0)
        reg.shift_in(1)
        assert reg.contents == []
        assert reg.loaded_sequence() == []

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            WrapperChainRegister(-1)


def _uncompressed_config(core: Core, m: int) -> CoreConfig:
    design = design_wrapper(core, m)
    return CoreConfig(
        core_name=core.name,
        uses_compression=False,
        wrapper_chains=m,
        code_width=None,
        test_time=scan_test_time(core.patterns, design.scan_in_max, design.scan_out_max),
        volume=0,
    )


class TestCoreSimulatorUncompressed:
    def test_cycles_match_analytic_model(self, small_core):
        for m in (1, 2, 4, 7):
            config = _uncompressed_config(small_core, m)
            sim = CoreSimulator(small_core, config, generate_cubes(small_core))
            result = sim.run()
            assert result.cycles == config.test_time, f"m={m}"

    def test_stimulus_verified(self, small_core):
        config = _uncompressed_config(small_core, 3)
        sim = CoreSimulator(small_core, config, generate_cubes(small_core))
        result = sim.run()
        assert result.patterns_applied == small_core.patterns
        assert result.bits_streamed > 0

    def test_detects_corrupted_cubes(self, small_core):
        """Feeding one core's config another core's data must blow up."""
        cubes = generate_cubes(small_core)
        bad = np.asarray(cubes.bits).copy()
        care = np.argwhere(bad != 2)
        q, b = care[0]
        bad[q, b] = 1 - bad[q, b]
        sim = CoreSimulator(
            small_core,
            _uncompressed_config(small_core, 3),
            generate_cubes(small_core),
        )
        # Sabotage the slices the simulator will drive, keeping the cube
        # reference intact: simulate by patching the slice array.
        sim._slices = sim._slices.copy()
        j, h = 0, 0
        # Find a care position in the slice view and flip it.
        found = False
        for j in range(sim._slices.shape[1]):
            for h in range(sim._slices.shape[2]):
                if sim._slices[0, j, h] != 2:
                    sim._slices[0, j, h] = 1 - sim._slices[0, j, h]
                    found = True
                    break
            if found:
                break
        assert found
        with pytest.raises(SimulationError, match="cube wants"):
            sim.run()

    def test_combinational_core(self, comb_core):
        config = _uncompressed_config(comb_core, 4)
        result = CoreSimulator(comb_core, config, generate_cubes(comb_core)).run()
        assert result.cycles == config.test_time


class TestCoreSimulatorCompressed:
    def test_matches_planned_time(self, sparse_core):
        soc = Soc(name="one", cores=(sparse_core,))
        plan = repro.plan(soc, 8, repro.RunConfig(compression="per-core"))
        config = plan.architecture.config_for(sparse_core.name)
        assert config.uses_compression
        result = CoreSimulator(
            sparse_core, config, generate_cubes(sparse_core)
        ).run()
        assert result.cycles == config.test_time
        assert result.codewords_consumed > 0
        assert result.bits_streamed == result.codewords_consumed * config.code_width

    def test_rejects_foreign_cubes(self, sparse_core, small_core):
        config = _uncompressed_config(sparse_core, 2)
        with pytest.raises(ValueError, match="different core"):
            CoreSimulator(sparse_core, config, generate_cubes(small_core))


class TestSimulateArchitecture:
    @pytest.fixture
    def mixed_soc(self, small_core, sparse_core):
        return Soc(name="mix", cores=(small_core, sparse_core))

    def test_no_tdc_plan_replays_exactly(self, mixed_soc):
        plan = repro.plan(mixed_soc, 8, repro.RunConfig(compression="none"))
        report = simulate_architecture(mixed_soc, plan.architecture)
        assert report.total_cycles == plan.test_time
        assert report.patterns_applied == mixed_soc.total_patterns

    def test_compressed_plan_replays_exactly(self, mixed_soc):
        plan = repro.plan(mixed_soc, 8, repro.RunConfig(compression="auto"))
        report = simulate_architecture(mixed_soc, plan.architecture)
        assert report.total_cycles == plan.test_time

    def test_d695_subset_replays(self):
        soc = repro.load_design("d695").subset(["s5378", "s9234", "s838"])
        plan = repro.plan(soc, 8, repro.RunConfig(compression="auto"))
        report = simulate_architecture(soc, plan.architecture)
        assert report.total_cycles == plan.test_time

    def test_per_tam_plan_replays_exactly(self, mixed_soc):
        plan = repro.plan(mixed_soc, 8, repro.RunConfig(compression="per-tam"))
        report = simulate_architecture(mixed_soc, plan.architecture)
        assert report.total_cycles == plan.test_time

    def test_soc_level_architecture_rejected(self, mixed_soc):
        from repro.core.soclevel import optimize_soc_level_decompressor

        plan = optimize_soc_level_decompressor(mixed_soc, 8)
        with pytest.raises(ValueError, match="soc-level"):
            simulate_architecture(mixed_soc, plan.architecture)

    def test_report_totals(self, mixed_soc):
        plan = repro.plan(mixed_soc, 8, repro.RunConfig(compression="per-core"))
        report = simulate_architecture(mixed_soc, plan.architecture)
        assert report.bits_streamed > 0
        assert report.soc_name == "mix"
