"""Unit tests for the per-core design-space exploration layer."""

import json
import sys
import threading
import time
from collections import OrderedDict

import pytest

from repro.compression.cubes import generate_cubes
from repro.compression.selective import code_parameters, slice_costs, slice_width_range
from repro.explore.dse import (
    MIN_CODE_WIDTH,
    CoreAnalysis,
    analysis_for,
    clear_analysis_cache,
)
from repro.soc.core import Core
from repro.wrapper.design import design_wrapper


class TestModeSelection:
    def test_small_core_analyzed_exactly(self, small_core):
        assert CoreAnalysis(small_core).mode == "exact"

    def test_huge_core_estimated(self):
        huge = Core(
            name="huge",
            inputs=10,
            outputs=10,
            scan_chain_lengths=(500,) * 100,
            patterns=5000,
            care_bit_density=0.02,
        )
        assert CoreAnalysis(huge).mode == "estimate"

    def test_explicit_mode_respected(self, small_core):
        assert CoreAnalysis(small_core, mode="estimate").mode == "estimate"

    def test_unknown_mode_rejected(self, small_core):
        with pytest.raises(ValueError):
            CoreAnalysis(small_core, mode="guess")

    def test_cubes_unavailable_in_estimate_mode(self, small_core):
        analysis = CoreAnalysis(small_core, mode="estimate")
        with pytest.raises(RuntimeError, match="estimate mode"):
            analysis.cubes


class TestUncompressedPoints:
    def test_matches_wrapper_timing(self, small_core):
        from repro.wrapper.timing import uncompressed_test_time

        analysis = CoreAnalysis(small_core)
        for w in (1, 3, 7):
            assert (
                analysis.uncompressed_point(w).test_time
                == uncompressed_test_time(small_core, w)
            )

    def test_rejects_zero_width(self, small_core):
        with pytest.raises(ValueError):
            CoreAnalysis(small_core).uncompressed_point(0)

    def test_cached(self, small_core):
        analysis = CoreAnalysis(small_core)
        assert analysis.uncompressed_point(4) is analysis.uncompressed_point(4)

    def test_uncompressed_only_precompute(self, small_core):
        analysis = CoreAnalysis(small_core)
        analysis.precompute(12, compression="none")
        assert analysis.uncompressed_points(range(1, 13)) == [
            CoreAnalysis(small_core).uncompressed_point(w) for w in range(1, 13)
        ]
        assert not analysis._compressed
        assert not analysis.is_complete_for(12)
        analysis.precompute(12)
        assert analysis.is_complete_for(12)


class TestPrecompute:
    """The ``--jobs``/disk-cache fill of a whole analysis."""

    def test_one_kernel_pass_per_core(self, tiny_soc, monkeypatch):
        from repro.explore import dse

        calls = []
        kernel = dse.exact_codeword_totals

        def counting(*args, **kwargs):
            calls.append(1)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(dse, "exact_codeword_totals", counting)
        for core in tiny_soc.cores:
            CoreAnalysis(core, mode="exact").precompute(16)
        assert len(calls) == len(tiny_soc.cores)

    def test_snapshot_matches_a_per_code_width_fill(self, tiny_soc):
        """The batched fill stores the same disk-cache payload, byte for byte."""
        for core in tiny_soc.cores:
            batched = CoreAnalysis(core)
            batched.precompute(16)
            reference = CoreAnalysis(core)
            for w in range(1, 17):
                reference.uncompressed_point(w)
            for w in range(MIN_CODE_WIDTH, min(16, reference.max_code_width) + 1):
                reference.best_for_code_width(w)
            expected = reference.snapshot()
            expected["precomputed_width"] = 16
            assert json.dumps(batched.snapshot()) == json.dumps(expected)


class TestCompressedPoints:
    def test_exact_matches_direct_encoding(self, small_core):
        analysis = CoreAnalysis(small_core, mode="exact")
        m = 4
        point = analysis.compressed_point(m)
        design = design_wrapper(small_core, m)
        cubes = generate_cubes(small_core)
        codewords = int(slice_costs(cubes.slices(design)).sum())
        assert point.codewords == codewords
        expected_time = codewords + small_core.patterns + min(
            design.scan_in_max, design.scan_out_max
        )
        assert point.test_time == expected_time
        assert point.volume == codewords * code_parameters(m)[1]
        assert point.exact

    def test_estimate_mode_flag(self, small_core):
        analysis = CoreAnalysis(small_core, mode="estimate")
        assert not analysis.compressed_point(4).exact

    def test_w_alias(self, small_core):
        point = CoreAnalysis(small_core).compressed_point(6)
        assert point.w == point.code_width == code_parameters(6)[1]

    def test_rejects_zero_m(self, small_core):
        with pytest.raises(ValueError):
            CoreAnalysis(small_core).compressed_point(0)


class TestGrids:
    def test_small_range_fully_enumerated(self, small_core):
        analysis = CoreAnalysis(small_core)
        # w=5 -> m in [4, 7]
        assert analysis.m_grid_for_code_width(5) == [4, 5, 6, 7]

    def test_grid_limited(self):
        core = Core(
            name="wide",
            inputs=50,
            outputs=50,
            scan_chain_lengths=(30,) * 300,
            patterns=10,
            care_bit_density=0.05,
        )
        analysis = CoreAnalysis(core, grid=16, mode="estimate")
        grid = analysis.m_grid_for_code_width(10)  # m in [128, 255]
        assert len(grid) <= 17
        assert grid[0] == 128 and grid[-1] == 255
        assert 300 not in grid  # out of the w=10 range

    def test_grid_includes_chain_count_when_in_range(self):
        core = Core(
            name="wide",
            inputs=50,
            outputs=50,
            scan_chain_lengths=(30,) * 200,
            patterns=10,
            care_bit_density=0.05,
        )
        analysis = CoreAnalysis(core, grid=8, mode="estimate")
        assert 200 in analysis.m_grid_for_code_width(10)

    def test_beyond_useful_range_gives_single_point(self, small_core):
        # small_core max useful = 10 -> w(10) = 6; w = 8 has m in [32, 63].
        analysis = CoreAnalysis(small_core)
        assert analysis.m_grid_for_code_width(8) == [32]

    def test_beyond_max_code_width_empty(self, small_core):
        analysis = CoreAnalysis(small_core)
        assert analysis.m_grid_for_code_width(analysis.max_code_width + 1) == []


class TestBestLookups:
    def test_best_for_code_width_is_minimum(self, small_core):
        analysis = CoreAnalysis(small_core)
        best = analysis.best_for_code_width(5)
        sweep = analysis.sweep_code_width(5)
        assert best.test_time == min(p.test_time for p in sweep)

    def test_best_for_tam_monotone(self, sparse_core):
        analysis = CoreAnalysis(sparse_core)
        times = [
            analysis.best_compressed_for_tam(w).test_time for w in range(3, 12)
        ]
        assert all(b <= a for a, b in zip(times, times[1:]))

    def test_best_for_tam_none_below_min_width(self, small_core):
        analysis = CoreAnalysis(small_core)
        assert analysis.best_compressed_for_tam(2) is None

    def test_best_for_tam_is_prefix_minimum(self, sparse_core):
        analysis = CoreAnalysis(sparse_core)
        for width in (9, 4, analysis.max_code_width + 5, 1, 12):
            expected = None
            for w in range(3, min(width, analysis.max_code_width) + 1):
                candidate = analysis.best_for_code_width(w)
                if expected is None or candidate.test_time < expected.test_time:
                    expected = candidate
            assert analysis.best_compressed_for_tam(width) == expected

    def test_best_compressed_row(self, sparse_core):
        analysis = CoreAnalysis(sparse_core)
        width = analysis.max_code_width + 4
        row = analysis.best_compressed_row(width)
        assert len(row) == width
        for w, best in enumerate(row, start=1):
            assert best == CoreAnalysis(sparse_core).best_compressed_for_tam(w)

    def test_concurrent_extensions_keep_the_prefix_in_step(
        self, sparse_core, monkeypatch
    ):
        # Threads extend the prefix at once; the slowed kernel pass makes
        # them all read the same starting length.
        analysis = CoreAnalysis(sparse_core)
        reference = CoreAnalysis(sparse_core)
        ensure = CoreAnalysis._ensure_points

        def slow_ensure(self, m_values):
            ensure(self, list(m_values))
            time.sleep(0.02)

        monkeypatch.setattr(CoreAnalysis, "_ensure_points", slow_ensure)
        top = analysis.max_code_width
        threads = [
            threading.Thread(target=analysis.best_compressed_row, args=(w,))
            for w in (top - 3, top - 2, top - 1, top, top + 2, top - 2)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        prefix = analysis._best_prefix
        assert len(prefix) >= top - 2
        for w, best in enumerate(prefix):
            assert best == reference.best_compressed_for_tam(w)
        for w in range(1, top + 3):
            assert analysis.best_compressed_for_tam(w) == (
                reference.best_compressed_for_tam(w)
            )

    def test_time_at_tam_fallback_to_uncompressed(self, small_core):
        analysis = CoreAnalysis(small_core)
        assert (
            analysis.time_at_tam(2, compression="per-core")
            == analysis.uncompressed_point(2).test_time
        )

    def test_time_at_tam_compressed_uses_best(self, sparse_core):
        analysis = CoreAnalysis(sparse_core)
        assert (
            analysis.time_at_tam(8, compression="per-core")
            == analysis.best_compressed_for_tam(8).test_time
        )

    def test_volume_at_tam(self, sparse_core):
        analysis = CoreAnalysis(sparse_core)
        best = analysis.best_compressed_for_tam(8)
        assert analysis.volume_at_tam(8, compression="per-core") == best.volume
        plain = analysis.uncompressed_point(8)
        assert analysis.volume_at_tam(8, compression="none") == plain.volume

    def test_relative_spread_in_unit_interval(self, sparse_core):
        analysis = CoreAnalysis(sparse_core)
        spread = analysis.relative_spread(6)
        assert 0.0 <= spread < 1.0

    def test_relative_spread_rejects_empty(self, small_core):
        analysis = CoreAnalysis(small_core)
        with pytest.raises(ValueError):
            analysis.relative_spread(analysis.max_code_width + 2)


class TestCompressionPaysOnSparseCores:
    def test_sparse_core_compresses(self, sparse_core):
        analysis = CoreAnalysis(sparse_core)
        w = 6
        compressed = analysis.best_compressed_for_tam(w).test_time
        plain = analysis.uncompressed_point(w).test_time
        assert compressed < plain

    def test_dense_core_may_not_compress(self, comb_core):
        # 70% care density: compression should not be forced to win.
        analysis = CoreAnalysis(comb_core)
        assert analysis.time_at_tam(4, compression="none") > 0


class TestAnalysisCache:
    def test_shared_instance(self, small_core):
        a = analysis_for(small_core)
        b = analysis_for(small_core)
        assert a is b

    def test_cleared(self, small_core):
        a = analysis_for(small_core)
        clear_analysis_cache()
        assert analysis_for(small_core) is not a

    def test_different_params_different_instances(self, small_core):
        assert analysis_for(small_core, grid=8) is not analysis_for(
            small_core, grid=16
        )

    def test_bounded_least_recently_used(self, small_core, monkeypatch):
        from repro.explore import dse

        monkeypatch.setattr(dse, "ANALYSIS_CACHE_MAX_ENTRIES", 3)
        first = analysis_for(small_core, grid=2)
        analysis_for(small_core, grid=3)
        analysis_for(small_core, grid=4)
        assert analysis_for(small_core, grid=2) is first  # refreshed
        analysis_for(small_core, grid=5)  # evicts grid=3, the oldest
        analysis_for(small_core, grid=6)  # evicts grid=4
        assert len(dse._CACHE) == 3
        assert [key[3] for key in dse._CACHE] == [2, 5, 6]
        assert analysis_for(small_core, grid=2) is first

    def test_hit_evicted_by_a_concurrent_call(self, small_core, monkeypatch):
        from repro.explore import dse

        class EvictedBeforeRefresh(OrderedDict):
            def move_to_end(self, key, last=True):
                del self[key]  # another thread's eviction got there first
                super().move_to_end(key, last)

        monkeypatch.setattr(dse, "_CACHE", EvictedBeforeRefresh())
        first = analysis_for(small_core)
        assert analysis_for(small_core) is first
