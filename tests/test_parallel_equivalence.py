"""Differential tests: the analysis engine's execution mode is invisible.

Determinism is a stated invariant of the whole flow -- the cube
generator, the sampled estimator, wrapper design, and scheduling all
resolve ties deterministically -- so running the per-core analyses
serially, fanned out over worker processes, through a cold persistent
cache, or from a warm persistent cache must produce *identical*
optimizer output, bit for bit.  These tests pin that invariant on both
academic (exact-mode) and industrial (estimate-mode) SOCs.
"""

from __future__ import annotations

import pytest

from repro.pipeline import RunConfig, plan
from repro.explore.cache import AnalysisDiskCache
from repro.explore.dse import clear_analysis_cache
from repro.parallel import resolve_jobs
from repro.soc.industrial import load_design

#: (design, width): two ITC'02-class academic SOCs analyzed exactly,
#: plus one industrial system exercising the sampled estimator.
CASES = [
    ("d695", 12),
    ("d2758", 8),
    ("System2", 24),
]


def _signature(result):
    """Everything the paper reports about a plan, plus the schedule."""
    return (
        result.test_time,
        result.tam_widths,
        result.test_data_volume,
        tuple(
            (slot.config, slot.tam_index, slot.start, slot.end)
            for slot in result.architecture.scheduled
        ),
    )


@pytest.mark.parametrize("design,width", CASES)
def test_serial_parallel_cold_warm_identical(design, width, tmp_path):
    soc = load_design(design)
    cache_dir = tmp_path / "analysis-cache"

    clear_analysis_cache()
    serial = plan(soc, width, RunConfig(use_cache=False))

    clear_analysis_cache()
    parallel = plan(soc, width, RunConfig(jobs=4, use_cache=False))

    clear_analysis_cache()
    cold = plan(soc, width, RunConfig(jobs=2, cache_dir=str(cache_dir)))
    assert AnalysisDiskCache(cache_dir).stats().entries == len(soc.cores)

    clear_analysis_cache()
    warm = plan(soc, width, RunConfig(cache_dir=str(cache_dir)))

    base = _signature(serial)
    assert _signature(parallel) == base
    assert _signature(cold) == base
    assert _signature(warm) == base
    # The architectures compare equal wholesale, not just field by field.
    assert parallel.architecture == serial.architecture
    assert cold.architecture == serial.architecture
    assert warm.architecture == serial.architecture


def test_per_tam_serial_matches_parallel(tmp_path):
    soc = load_design("d695")

    clear_analysis_cache()
    serial = plan(soc, 12, RunConfig(compression="per-tam", use_cache=False))

    clear_analysis_cache()
    parallel = plan(
        soc, 12, RunConfig(compression="per-tam", jobs=2, cache_dir=str(tmp_path))
    )

    clear_analysis_cache()
    warm = plan(soc, 12, RunConfig(compression="per-tam", cache_dir=str(tmp_path)))

    assert _signature(parallel) == _signature(serial)
    assert _signature(warm) == _signature(serial)


def test_env_override_preserves_results(tmp_path, monkeypatch):
    """REPRO_JOBS switches the engine without changing any output."""
    soc = load_design("System2")

    clear_analysis_cache()
    serial = plan(soc, 16, RunConfig(use_cache=False))

    monkeypatch.setenv("REPRO_JOBS", "2")
    assert resolve_jobs(None) == 2
    clear_analysis_cache()
    via_env = plan(soc, 16, RunConfig(use_cache=False))

    assert _signature(via_env) == _signature(serial)


def test_wider_budget_reuses_and_extends_cache(tmp_path):
    """A warm entry from a narrow run seeds a wider run, identically."""
    soc = load_design("System2")
    cache_dir = str(tmp_path)

    clear_analysis_cache()
    plan(soc, 12, RunConfig(jobs=2, cache_dir=cache_dir))

    clear_analysis_cache()
    extended = plan(soc, 20, RunConfig(jobs=2, cache_dir=cache_dir))

    clear_analysis_cache()
    fresh = plan(soc, 20, RunConfig(use_cache=False))
    assert _signature(extended) == _signature(fresh)

    # The widened tables were merged back: a third run is a pure hit.
    cache = AnalysisDiskCache(cache_dir)
    clear_analysis_cache()
    warm = plan(soc, 20, RunConfig(cache_dir=cache_dir))
    assert _signature(warm) == _signature(fresh)


def test_resolve_jobs_knob(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(None) == 1
    assert resolve_jobs(3) == 3
    assert resolve_jobs(0) >= 1  # all CPUs
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert resolve_jobs(None) == 5
    assert resolve_jobs(2) == 2  # explicit argument beats the env
    monkeypatch.setenv("REPRO_JOBS", "not-a-number")
    with pytest.warns(RuntimeWarning):
        assert resolve_jobs(None) == 1
