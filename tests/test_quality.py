"""Tests for the coverage model and memory-depth truncation."""

import pytest

import repro
from repro.quality.coverage import CoverageModel, soc_quality
from repro.quality.truncation import truncate_for_depth
from repro.soc.core import Core
from repro.soc.soc import Soc


class TestCoverageModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            CoverageModel(full_patterns=0)
        with pytest.raises(ValueError):
            CoverageModel(full_patterns=10, max_coverage=0.0)
        with pytest.raises(ValueError):
            CoverageModel(full_patterns=10, saturation=1.0)

    def test_zero_patterns_zero_coverage(self):
        model = CoverageModel(full_patterns=100)
        assert model.coverage(0) == 0.0

    def test_full_set_reaches_saturation_fraction(self):
        model = CoverageModel(full_patterns=200, max_coverage=0.99, saturation=0.98)
        assert model.coverage(200) == pytest.approx(0.99 * 0.98, rel=1e-6)

    def test_monotone_and_saturating(self):
        model = CoverageModel(full_patterns=100)
        values = [model.coverage(p) for p in range(0, 301, 25)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] <= model.max_coverage

    def test_marginal_decreasing(self):
        model = CoverageModel(full_patterns=100)
        assert model.marginal(10) > model.marginal(50) > model.marginal(200)

    def test_negative_patterns_rejected(self):
        with pytest.raises(ValueError):
            CoverageModel(full_patterns=10).coverage(-1)

    def test_for_core(self, small_core):
        model = CoverageModel.for_core(small_core)
        assert model.full_patterns == small_core.patterns


class TestSocQuality:
    def test_full_sets_near_max(self, tiny_soc):
        counts = {c.name: c.patterns for c in tiny_soc}
        quality = soc_quality(tiny_soc, counts)
        assert 0.95 < quality < 1.0

    def test_weighted_by_scan_cells(self, tiny_soc):
        counts = {c.name: c.patterns for c in tiny_soc}
        # Gutting the biggest core hurts more than gutting the smallest.
        biggest = max(tiny_soc.cores, key=lambda c: c.scan_cells)
        smallest = min(tiny_soc.cores, key=lambda c: c.scan_cells)
        gut_big = dict(counts, **{biggest.name: 1})
        gut_small = dict(counts, **{smallest.name: 1})
        assert soc_quality(tiny_soc, gut_big) < soc_quality(tiny_soc, gut_small)

    def test_missing_core_defaults_to_full(self, tiny_soc):
        assert soc_quality(tiny_soc, {}) == pytest.approx(
            soc_quality(tiny_soc, {c.name: c.patterns for c in tiny_soc})
        )


@pytest.fixture
def planned():
    cores = tuple(
        Core(
            name=f"c{i}",
            inputs=6,
            outputs=6,
            scan_chain_lengths=(30,) * (8 + 4 * i),
            patterns=60 + 20 * i,
            care_bit_density=0.04,
            seed=800 + i,
        )
        for i in range(3)
    )
    soc = Soc(name="trunc", cores=cores)
    plan = repro.plan(soc, 10, repro.RunConfig(compression="per-core"))
    return soc, plan


class TestTruncation:
    def test_noop_when_it_fits(self, planned):
        soc, plan = planned
        result = truncate_for_depth(soc, plan, plan.test_time)
        assert result.fits
        assert result.iterations == 0
        assert result.pattern_counts == {c.name: c.patterns for c in soc}
        assert result.quality == pytest.approx(result.full_quality)

    def test_truncates_to_depth(self, planned):
        soc, plan = planned
        depth = int(plan.test_time * 0.7)
        result = truncate_for_depth(soc, plan, depth)
        assert result.fits
        assert result.makespan <= depth
        assert result.quality < result.full_quality
        assert all(
            result.pattern_counts[c.name] <= c.patterns for c in soc
        )

    def test_quality_degrades_gracefully(self, planned):
        soc, plan = planned
        mild = truncate_for_depth(soc, plan, int(plan.test_time * 0.9))
        harsh = truncate_for_depth(soc, plan, int(plan.test_time * 0.6))
        assert mild.quality >= harsh.quality
        # Even the harsh cut keeps most coverage: truncation eats the
        # flat tail of the coverage curve first.
        assert harsh.quality > 0.9 * harsh.full_quality

    def test_floor_reported_as_unfit(self, planned):
        soc, plan = planned
        result = truncate_for_depth(soc, plan, max(1, plan.test_time // 50))
        assert not result.fits
        assert all(
            result.pattern_counts[c.name]
            >= max(1, int(round(0.1 * c.patterns)))
            for c in soc
        )

    def test_validation(self, planned):
        soc, plan = planned
        with pytest.raises(ValueError):
            truncate_for_depth(soc, plan, 0)
        with pytest.raises(ValueError):
            truncate_for_depth(soc, plan, 10, min_fraction=0.0)
        with pytest.raises(ValueError):
            truncate_for_depth(soc, plan, 10, step_fraction=2.0)

    def test_integer_ceil_accounting_at_the_floor_boundary(self):
        # One core, 69 cycles for 10 patterns, floored at 6 patterns:
        # the truncated test needs ceil(69 * 6 / 10) = 42 whole cycles.
        # Float accounting rounded the 41.4-cycle load to makespan 41
        # and reported fits=True against depth 41.
        from repro.core.architecture import (
            CoreConfig,
            DecompressorPlacement,
            ScheduledCore,
            Tam,
            TestArchitecture,
        )
        from repro.pipeline.result import PlanResult

        core = Core(
            name="only",
            inputs=2,
            outputs=2,
            scan_chain_lengths=(30,),
            patterns=10,
        )
        soc = Soc(name="boundary", cores=(core,))
        config = CoreConfig(
            core_name="only",
            uses_compression=False,
            wrapper_chains=1,
            code_width=None,
            test_time=69,
            volume=690,
        )
        arch = TestArchitecture(
            soc_name="boundary",
            placement=DecompressorPlacement.NONE,
            tams=(Tam(0, 1),),
            scheduled=(
                ScheduledCore(config=config, tam_index=0, start=0, end=69),
            ),
            ate_channels=1,
        )
        plan = PlanResult(
            soc_name="boundary",
            width_budget=1,
            compression="none",
            architecture=arch,
            cpu_seconds=0.0,
            partitions_evaluated=1,
            strategy="exhaustive",
        )
        result = truncate_for_depth(
            soc, plan, 41, min_fraction=0.6, step_fraction=0.1
        )
        assert result.pattern_counts == {"only": 6}
        assert result.makespan == 42
        assert not result.fits
        # One cycle of extra depth makes the floored schedule legal.
        relaxed = truncate_for_depth(
            soc, plan, 42, min_fraction=0.6, step_fraction=0.1
        )
        assert relaxed.fits
        assert relaxed.makespan == 42

    def test_compression_needs_less_truncation(self, planned):
        """The intro's motivation: at the same ATE depth, the compressed
        plan keeps more quality."""
        soc, _ = planned
        plain = repro.plan(soc, 10, repro.RunConfig(compression="none"))
        packed = repro.plan(soc, 10, repro.RunConfig(compression="per-core"))
        depth = int(packed.test_time * 1.5)  # generous for TDC, tight for raw
        plain_result = truncate_for_depth(soc, plain, depth)
        packed_result = truncate_for_depth(soc, packed, depth)
        assert packed_result.quality >= plain_result.quality
