"""Final coverage batch: corners not exercised elsewhere."""

import numpy as np
import pytest

import repro
from repro.ate.tester import AteFit
from repro.cli import main
from repro.compression.estimator import estimate_slice_costs
from repro.compression.selective import slice_width_range
from repro.core.architecture import architecture_summary
from repro.core.soclevel import _adjusted_target_bits
from repro.soc.core import Core
from repro.soc.soc import Soc
from repro.wrapper.design import design_wrapper


class TestCliSelectAndGantt:
    def test_plan_select_mode(self, capsys):
        assert (
            main(
                [
                    "plan",
                    "d695",
                    "--width",
                    "10",
                    "--compression",
                    "select",
                ]
            )
            == 0
        )
        assert "test time=" in capsys.readouterr().out


class TestSocLevelInternals:
    def test_adjusted_targets_scale_with_density(self):
        lo = Core(
            name="lo",
            inputs=4,
            outputs=4,
            scan_chain_lengths=(40,) * 8,
            patterns=30,
            care_bit_density=0.02,
            seed=1,
        )
        hi = Core(
            name="hi",
            inputs=4,
            outputs=4,
            scan_chain_lengths=(40,) * 8,
            patterns=30,
            care_bit_density=0.2,
            seed=1,
        )
        a = _adjusted_target_bits(lo, 8, group_bits=5, samples=512)
        b = _adjusted_target_bits(hi, 8, group_bits=5, samples=512)
        assert b > a >= 0

    def test_unscanned_core_contributes_nothing(self, comb_core):
        # A combinational core still has wrapper cells, so si > 0; force
        # the si == 0 branch with a zero-terminal artificial core.
        bare = Core(name="bare", inputs=0, outputs=1, patterns=2)
        assert _adjusted_target_bits(bare, 4, group_bits=3, samples=64) == 0

    def test_summary_renders_soclevel(self):
        soc = Soc(
            name="s",
            cores=(
                Core(
                    name="c",
                    inputs=4,
                    outputs=4,
                    scan_chain_lengths=(30,) * 6,
                    patterns=20,
                    care_bit_density=0.05,
                    seed=2,
                ),
            ),
        )
        result = repro.optimize_soc_level_decompressor(soc, 6)
        text = architecture_summary(result.architecture)
        assert "placement=soc-level" in text


class TestEstimatorCorners:
    def test_unscanned_design_returns_floor(self):
        bare = Core(name="bare", inputs=0, outputs=1, patterns=2)
        design = design_wrapper(bare, 2)
        costs = estimate_slice_costs(bare, design, samples=16)
        assert np.all(costs == 1)


class TestSelectiveCorners:
    def test_width_three_range_is_m_equals_one(self):
        assert list(slice_width_range(3)) == [1]

    def test_range_empty_when_clipped_away(self):
        assert list(slice_width_range(10, max_useful=100)) == []


class TestAteCorners:
    def test_zero_available_depth_utilization(self):
        fit = AteFit(fits=False, required_depth=5, available_depth=0)
        assert fit.utilization == float("inf")


class TestHierarchyExportInterplay:
    def test_hierarchical_plan_exports(self):
        child = Soc(
            name="child",
            cores=(
                Core(
                    name="k0",
                    inputs=4,
                    outputs=4,
                    scan_chain_lengths=(20,) * 6,
                    patterns=20,
                    care_bit_density=0.05,
                    seed=3,
                ),
            ),
        )
        top = Core(
            name="t0",
            inputs=4,
            outputs=4,
            scan_chain_lengths=(25,) * 8,
            patterns=25,
            care_bit_density=0.05,
            seed=4,
        )
        plan = repro.optimize_hierarchical(
            "parent", [repro.ChildSocCore(child), top], 8
        )
        payload = repro.architecture_to_json(plan.architecture)
        rebuilt = repro.architecture_from_json(payload)
        assert rebuilt.test_time == plan.test_time


class TestWrapperCornerWithBidirs:
    def test_bidirs_count_on_both_sides(self):
        core = Core(
            name="b",
            inputs=3,
            outputs=2,
            bidirs=4,
            scan_chain_lengths=(10,),
            patterns=5,
            care_bit_density=0.2,
            seed=5,
        )
        design = design_wrapper(core, 2)
        assert sum(design.chains_inputs) == 7
        assert sum(design.chains_outputs) == 6
        cubes = repro.generate_cubes(core)
        assert cubes.bits_per_pattern == 10 + 7

    def test_bidirs_roundtrip_through_optimizer(self):
        core = Core(
            name="b2",
            inputs=3,
            outputs=2,
            bidirs=4,
            scan_chain_lengths=(12, 10),
            patterns=8,
            care_bit_density=0.2,
            seed=6,
        )
        soc = Soc(name="bs", cores=(core,))
        plan = repro.plan(soc, 5, repro.RunConfig(compression="auto"))
        report = repro.simulate_architecture(soc, plan.architecture)
        assert report.total_cycles == plan.test_time
