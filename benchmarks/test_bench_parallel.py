"""Ablation A10 -- the analysis engine's execution modes.

The per-core (w, m) sweep dominates the optimizer's runtime on the
industrial systems.  This bench runs the full flow on the largest
bundled SOC (System4, twelve estimate-mode cores) in four modes --
serial, process-parallel, cold persistent cache, warm persistent
cache -- asserts the plans are bit-identical (the engine's core
invariant), and records the wall-clock ablation.

Acceptance: the warm-cache run must beat the cold serial run by at
least 5x.  The parallel row is reported but not gated -- the speedup
it buys is whatever ``os.cpu_count()`` provides, which on a 1-CPU
runner is nothing.
"""

from __future__ import annotations

import os
import time

from conftest import run_once

from repro.pipeline import RunConfig, plan
from repro.explore.cache import AnalysisDiskCache
from repro.explore.dse import clear_analysis_cache
from repro.reporting.tables import format_table
from repro.soc.industrial import load_design

DESIGN = "System4"
WIDTH = 64


def _plan(soc, **perf):
    # Greedy partitioning keeps the (uncached) SOC-level search out of
    # the measurement, so the rows isolate the per-core analysis cost.
    clear_analysis_cache()
    return plan(soc, WIDTH, RunConfig(strategy="greedy", **perf))


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def _signature(result):
    return (
        result.test_time,
        result.tam_widths,
        result.test_data_volume,
        tuple(
            (slot.config, slot.tam_index, slot.start, slot.end)
            for slot in result.architecture.scheduled
        ),
    )


def _ablation(cache_dir):
    soc = load_design(DESIGN)
    rows = []

    serial, t_serial = _timed(_plan, soc, jobs=1, use_cache=False)
    rows.append(("serial (jobs=1)", t_serial, 1.0))

    parallel, t_parallel = _timed(_plan, soc, jobs=0, use_cache=False)
    rows.append((f"parallel (jobs={os.cpu_count()})", t_parallel, t_serial / t_parallel))

    cold, t_cold = _timed(_plan, soc, jobs=0, cache_dir=cache_dir)
    rows.append(("cold cache (parallel + store)", t_cold, t_serial / t_cold))

    warm, t_warm = _timed(_plan, soc, cache_dir=cache_dir)
    rows.append(("warm cache", t_warm, t_serial / t_warm))

    base = _signature(serial)
    assert _signature(parallel) == base
    assert _signature(cold) == base
    assert _signature(warm) == base

    entries = AnalysisDiskCache(cache_dir).stats().entries
    assert entries == len(soc.cores)
    return rows, t_serial / t_warm, serial


def test_parallel_cache_ablation(benchmark, record, tmp_path):
    rows, warm_speedup, plan = run_once(benchmark, _ablation, str(tmp_path / "cache"))
    record(
        "ablation_parallel.txt",
        format_table(
            ["mode", "seconds", "speedup vs serial"],
            [(mode, f"{sec:.3f}", f"{speedup:.1f}x") for mode, sec, speedup in rows],
            title=(
                f"Ablation A10 -- {DESIGN} at W={WIDTH} (greedy): "
                f"analysis engine execution modes "
                f"(test time {plan.test_time} cycles)"
            ),
        ),
    )
    assert warm_speedup >= 5.0, (
        f"warm cache only {warm_speedup:.1f}x faster than cold serial"
    )
