"""End-to-end integration tests across the whole stack.

These exercise the flows a user of the library runs: load a paper
design, co-optimize it, inspect the architecture, and verify that the
compressed plan is actually deliverable (encode the scheduled streams
and expand them through the decompressor model).
"""

import numpy as np
import pytest

import repro
from repro.compression.decompressor import expand_stream, slices_compatible
from repro.compression.selective import encode_slices
from repro.core.hardware import architecture_hardware_cost
from repro.wrapper.design import design_wrapper


class TestD695Flow:
    @pytest.fixture(scope="class")
    def plans(self):
        soc = repro.load_design("d695")
        return (
            soc,
            repro.plan(soc, 24, repro.RunConfig(compression="none")),
            repro.plan(soc, 24, repro.RunConfig(compression="auto")),
        )

    def test_every_core_scheduled_once(self, plans):
        soc, plain, _ = plans
        names = [s.config.core_name for s in plain.architecture.scheduled]
        assert sorted(names) == sorted(soc.core_names)

    def test_auto_no_worse_than_plain(self, plans):
        _, plain, auto = plans
        assert auto.test_time <= plain.test_time

    def test_volume_accounting_positive(self, plans):
        _, plain, auto = plans
        assert plain.test_data_volume > 0
        assert auto.test_data_volume > 0

    def test_gantt_renders(self, plans):
        _, plain, _ = plans
        text = plain.architecture.render_gantt()
        assert text.count("TAM") >= len(plain.tam_widths)

    def test_cpu_under_a_minute(self, plans):
        # The paper reports sub-minute planning; our CPU budget target.
        _, plain, auto = plans
        assert plain.cpu_seconds < 60
        assert auto.cpu_seconds < 60


class TestCompressedPlanIsDeliverable:
    """Encode the actual cube slices for a scheduled compressed core and
    push them through the decompressor: the plan's codeword count must
    match and the expansion must honor every care bit."""

    def test_plan_matches_bitstream(self):
        core = repro.Core(
            name="deliver",
            inputs=6,
            outputs=6,
            scan_chain_lengths=(18, 16, 15, 14, 12),
            patterns=25,
            care_bit_density=0.06,
            seed=9,
        )
        soc = repro.Soc(name="one", cores=(core,))
        plan = repro.plan(soc, 8, repro.RunConfig(compression="per-core"))
        config = plan.architecture.config_for("deliver")
        assert config.uses_compression

        cubes = repro.generate_cubes(core)
        design = design_wrapper(core, config.wrapper_chains)
        slices = cubes.slices(design).reshape(-1, config.wrapper_chains)
        stream = encode_slices(slices)

        # The optimizer's codeword accounting equals the real bitstream.
        expected_time = stream.cycles + core.patterns + min(
            design.scan_in_max, design.scan_out_max
        )
        assert config.test_time == expected_time
        assert config.volume == stream.total_bits

        decoded = expand_stream(stream)
        assert slices_compatible(slices, decoded)


class TestIndustrialFlow:
    def test_system2_compression_wins_big(self):
        soc = repro.load_design("System2")
        plain = repro.plan(soc, 24, repro.RunConfig(compression="none"))
        packed = repro.plan(soc, 24, repro.RunConfig(compression="per-core"))
        assert packed.test_time * 3 < plain.test_time
        assert packed.test_data_volume * 3 < plain.test_data_volume

    def test_hardware_overhead_small(self):
        soc = repro.load_design("System2")
        packed = repro.plan(soc, 24, repro.RunConfig(compression="per-core"))
        cost = architecture_hardware_cost(packed.architecture)
        assert cost.area_fraction(soc.gates) < 0.01


class TestAteIntegration:
    def test_schedule_fits_big_tester(self):
        soc = repro.load_design("d695")
        plan = repro.plan(soc, 16, repro.RunConfig(compression="none"))
        ate = repro.Ate(channels=16, memory_depth=50_000_000)
        assert ate.depth_for_schedule(plan.test_time).fits
        assert ate.seconds(plan.test_time) > 0


class TestSocFileRoundTripThroughOptimizer:
    def test_external_design_flow(self, tmp_path):
        soc = repro.load_design("d695")
        path = tmp_path / "design.soc"
        repro.write_soc_file(soc, path)
        loaded = repro.parse_soc_file(path)
        a = repro.plan(soc, 12, repro.RunConfig(compression="none"))
        b = repro.plan(loaded, 12, repro.RunConfig(compression="none"))
        assert a.test_time == b.test_time
        assert a.tam_widths == b.tam_widths
