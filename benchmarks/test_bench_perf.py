"""Kernel performance benchmarks (multi-round pytest-benchmark runs).

Not a paper artifact: these measure the library's hot kernels so
regressions in the cost-critical paths (slice-cost kernel, estimator,
wrapper design, scheduling) are visible.  The paper's "CPU time below
one minute" claim rests on these staying fast.
"""

import statistics
import time

import numpy as np
import pytest

from repro import obs
from repro.compression.cubes import generate_cubes
from repro.compression.estimator import estimate_codewords
from repro.compression.selective import encode_slices, slice_costs
from repro.core.scheduler import schedule_cores
from repro.search import run_search
from repro.soc.core import Core
from repro.soc.industrial import industrial_core
from repro.wrapper.design import clear_wrapper_design_cache, design_wrapper


@pytest.fixture(scope="module")
def slices_64():
    rng = np.random.default_rng(1)
    arr = np.where(rng.random((4096, 64)) < 0.05, rng.integers(0, 2, (4096, 64)), 2)
    return arr.astype(np.int8)


def test_slice_cost_kernel_throughput(benchmark, slices_64):
    """Vectorized cost of 4096 64-bit slices (the DSE inner loop)."""
    total = benchmark(lambda: int(slice_costs(slices_64).sum()))
    assert total >= 4096  # at least the END codewords


def test_bit_level_encoder(benchmark, slices_64):
    """The exact (per-slice Python) encoder on a 512-slice batch."""
    batch = slices_64[:512]
    stream = benchmark(lambda: encode_slices(batch))
    assert stream.slice_count == 512


def test_estimator_per_configuration(benchmark):
    """One sampled (core, m) evaluation for an industrial core."""
    core = industrial_core("ckt-7")
    design = design_wrapper(core, 200)
    stats = benchmark(
        lambda: estimate_codewords(core, design, samples=768)
    )
    assert stats.total_codewords > 0


def test_wrapper_design_bfd(benchmark):
    """BFD wrapper design for a 300-chain core (no cache)."""
    core = industrial_core("ckt-11")

    def run():
        clear_wrapper_design_cache()
        return design_wrapper(core, 128)

    design = benchmark(run)
    assert design.num_chains == 128


def test_list_scheduler(benchmark):
    """O(nk) list scheduling of 50 cores on 6 TAMs."""
    rng = np.random.default_rng(2)
    times = {f"c{i}": int(rng.integers(100, 10_000)) for i in range(50)}
    names = list(times)

    outcome = benchmark(
        lambda: schedule_cores(names, [12, 10, 8, 6, 4, 2], lambda n, w: times[n])
    )
    assert outcome.makespan > 0


def test_partition_search_exhaustive(benchmark):
    """Full exhaustive partition search at W=32 with cached times."""
    rng = np.random.default_rng(3)
    work = {f"c{i}": int(rng.integers(5_000, 200_000)) for i in range(10)}
    names = list(work)

    def time_of(name, width):
        return -(-work[name] // width)

    result = benchmark(
        lambda: run_search(names, 32, time_of, strategy="exhaustive")
    )
    assert result.makespan > 0


class TestObservabilityOverhead:
    """Guard the obs subsystem's two cost claims (docs/observability.md):

    * **disabled**: every probe is a global read and a return, so the
      probe traffic of a whole optimize run must stay under 1 % of its
      wall clock;
    * **enabled**: full collection (spans, metrics, the event bridge,
      report assembly) must stay under 5 % end to end on a cold d695
      optimize run.
    """

    ROUNDS = 3

    @staticmethod
    def _cold_d695_seconds(enabled: bool) -> tuple[float, "object"]:
        from repro.explore.dse import clear_analysis_cache
        from repro.pipeline import RunConfig, plan
        from repro.soc.benchmarks import load_benchmark

        soc = load_benchmark("d695")
        clear_analysis_cache()
        clear_wrapper_design_cache()
        began = time.perf_counter()
        if enabled:
            with obs.enabled() as active:
                plan(soc, 16, RunConfig())
            context = active
        else:
            plan(soc, 16, RunConfig())
            context = None
        return time.perf_counter() - began, context

    @pytest.fixture(scope="class")
    def timings(self):
        """Interleaved cold runs: medians are robust to machine drift."""
        disabled, enabled = [], []
        context = None
        for _ in range(self.ROUNDS):
            seconds, _ = self._cold_d695_seconds(enabled=False)
            disabled.append(seconds)
            seconds, context = self._cold_d695_seconds(enabled=True)
            enabled.append(seconds)
        return (
            statistics.median(disabled),
            statistics.median(enabled),
            context,
        )

    def test_disabled_probe_traffic_below_one_percent(self, timings):
        """Per-call no-op cost x a run's actual probe count < 1 %."""
        median_disabled, _, context = timings
        calls = 200_000
        began = time.perf_counter()
        for _ in range(calls):
            obs.inc("bench.noop")
        inc_cost = (time.perf_counter() - began) / calls
        began = time.perf_counter()
        for _ in range(calls // 4):
            with obs.span("bench.noop"):
                pass
        span_cost = (time.perf_counter() - began) / (calls // 4)
        per_call = max(inc_cost, span_cost)

        # Upper-bound the run's probe count from the enabled run: every
        # span, every histogram observation, and (over-counting multi-
        # increment calls as one call each) every counter unit.
        snapshot = context.registry.snapshot()
        probe_calls = (
            len(context.tracer.spans)
            + sum(h["count"] for h in snapshot["histograms"].values())
            + sum(snapshot["counters"].values())
        )
        assert probe_calls > 0
        overhead = per_call * probe_calls
        assert overhead < 0.01 * median_disabled, (
            f"disabled probes would cost {overhead:.4f}s of "
            f"{median_disabled:.2f}s ({100 * overhead / median_disabled:.2f}%)"
        )

    def test_enabled_collection_below_five_percent(self, timings, record):
        median_disabled, median_enabled, _ = timings
        ratio = median_enabled / median_disabled - 1.0
        record(
            "obs_overhead.txt",
            (
                "observability overhead on cold d695 plan (W=16, serial, "
                f"median of {self.ROUNDS}):\n"
                f"  disabled {median_disabled:.3f}s\n"
                f"  enabled  {median_enabled:.3f}s\n"
                f"  overhead {100 * ratio:+.2f}% (budget 5%)"
            ),
        )
        assert ratio < 0.05, (
            f"enabled observability costs {100 * ratio:.2f}% "
            f"({median_enabled:.3f}s vs {median_disabled:.3f}s)"
        )


def test_cube_generation(benchmark):
    """Synthetic cube materialization for a d695-class core."""
    core = Core(
        name="gen",
        inputs=38,
        outputs=304,
        scan_chain_lengths=(45,) * 32,
        patterns=110,
        care_bit_density=0.6,
        seed=4,
    )
    cubes = benchmark(lambda: generate_cubes(core))
    assert cubes.patterns == 110
