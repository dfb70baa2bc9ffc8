"""Differential battery pinning every vectorized hot-path kernel.

The single-plan hot path rewrote five layers with numpy -- selective
slice costs, the fused exact codeword kernel, the sampled estimator,
wrapper BFD, and the partition scheduler.  This suite holds each fast
path bit-identical to a scalar reference:

* **kernels** -- fast vs. reference on real benchmark cores (d695 /
  d2758 exact, the industrial ckt cores for the estimator) and on
  ``REPRO_FUZZ_SEEDS`` random cores from the fuzz generator;
* **analysis points** -- every ``CoreAnalysis.compressed_point`` from
  the batched pass vs. one per-``m`` BFD and codeword count
  (:func:`scalar_point`);
* **scheduler** -- the indexed and batch list schedulers vs. the
  original per-call loop (:func:`reference_schedule_cores`);
* **whole plans** -- every catalogue SOC matches its golden
  fingerprint, random fuzz SOCs plan alike on lazily filled and on
  precomputed analyses, and every plan is re-checked by the
  independent invariant catalog (:mod:`repro.verify`).

The codec fast/reference pairs (Golomb, FDR, zero-run extraction) are
pinned in ``tests/test_codecs.py`` next to their unit tests.

``REPRO_FUZZ_SEEDS`` widens the random sweeps in CI (the verification
job sets it to 200); the local default keeps the file in tens of
seconds.
"""

from __future__ import annotations

import os
import random
import tracemalloc

import numpy as np
import pytest

from repro.compression.cubes import generate_cubes
from repro.compression.estimator import (
    DEFAULT_SAMPLES,
    _sampled_target_groups,
    estimate_codewords,
    estimate_codewords_batch,
    estimate_slice_costs,
)
from repro.compression.hotpath import (
    exact_codeword_total,
    exact_codeword_totals,
    symbol_table,
)
from repro.compression.selective import (
    GROUP_COPY_THRESHOLD,
    code_parameters,
    encode_slice,
    slice_costs,
)
from repro.core import scheduler
from repro.core.partition import partitions_list
from repro.core.scheduler import (
    ScheduleOutcome,
    TimeTable,
    schedule_cores,
    schedule_cores_indexed,
    schedule_makespans_batch,
)
from repro.explore.dse import (
    CompressedPoint,
    CoreAnalysis,
    analysis_for,
    clear_analysis_cache,
)
from repro.pipeline import RunConfig, plan
from repro.pipeline.tables import LookupTables
from repro.search import run_search
from repro.soc.industrial import load_design
from repro.verify.fuzz import random_core, random_soc
from repro.verify.invariants import verify_plan
from repro.wrapper.design import (
    WrapperDesign,
    _design_wrapper_uncached,
    clear_wrapper_design_cache,
    design_wrapper,
    design_wrappers_batch,
)
from test_golden_plans import fingerprint, golden

FUZZ_SEEDS = int(os.environ.get("REPRO_FUZZ_SEEDS", 24))
#: Plan-level differentials replan every SOC twice; scale them slower.
PLAN_SEEDS = max(4, FUZZ_SEEDS // 4)

#: Chain counts probed on real benchmark cores: every small m (where
#: group effects are strongest) plus a spread of larger ones.
BENCH_MS = (1, 2, 3, 4, 5, 6, 7, 8, 12, 17, 23, 31, 46, 64)


def _bench_cores(name):
    return load_design(name).cores


# ---------------------------------------------------------------------------
# Exact kernels on real benchmark cores.
# ---------------------------------------------------------------------------


class TestExactKernelsOnBenchmarks:
    @pytest.mark.parametrize("design_name", ["d695", "d2758"])
    def test_fused_totals_match_dense_slice_costs(self, design_name):
        """The fused kernel equals the dense per-design path, per core."""
        for core in _bench_cores(design_name):
            cubes = generate_cubes(core)
            designs = [design_wrapper(core, m) for m in BENCH_MS]
            fused = exact_codeword_totals(
                cubes, designs, symbols=symbol_table(cubes)
            )
            dense = np.array(
                [slice_costs(cubes.slices(d)).sum() for d in designs],
                dtype=np.int64,
            )
            assert np.array_equal(fused, dense), (design_name, core.name)

    def test_single_design_wrapper_matches(self):
        core = _bench_cores("d695")[0]
        cubes = generate_cubes(core)
        design = design_wrapper(core, 5)
        assert exact_codeword_total(cubes, design) == int(
            slice_costs(cubes.slices(design)).sum()
        )

    def test_mismatched_core_rejected(self):
        cores = _bench_cores("d695")
        cubes = generate_cubes(cores[0])
        foreign = design_wrapper(cores[1], 3)
        with pytest.raises(ValueError):
            exact_codeword_totals(cubes, [foreign])

    def test_mismatched_symbol_table_rejected(self):
        core = _bench_cores("d695")[0]
        cubes = generate_cubes(core)
        design = design_wrapper(core, 3)
        bad = np.zeros((2, 3, 3), dtype=np.int8)
        with pytest.raises(ValueError):
            exact_codeword_totals(cubes, [design], symbols=bad)


def slice_costs_reference(slices: np.ndarray) -> np.ndarray:
    """Scalar reference for ``slice_costs`` via real codeword lists.

    Encodes every slice with ``encode_slice`` and counts the codewords:
    slow, but derived from the codec itself rather than from another
    array formulation.
    """
    arr = np.asarray(slices, dtype=np.int8)
    if arr.ndim == 3:
        arr = arr.reshape(-1, arr.shape[-1])
    return np.array([len(encode_slice(row)) for row in arr], dtype=np.int64)


def test_slice_costs_match_encode_reference_on_fuzz_cores():
    """Vectorized slice costs == per-slice ``encode_slice`` ground truth.

    The reference walks every sampled slice through the actual encoder,
    so this also re-pins the vectorized path to the codeword semantics,
    not just to another array formulation.
    """
    for seed in range(FUZZ_SEEDS):
        rng = random.Random(10_000 + seed)
        core = random_core(rng, seed)
        cubes = generate_cubes(core)
        for m in (1, 2, 3, rng.randint(4, 12)):
            design = design_wrapper(core, m)
            slices = cubes.slices(design)
            fast = slice_costs(slices)
            ref = slice_costs_reference(slices)
            assert np.array_equal(fast, ref), (seed, m)
            assert exact_codeword_total(cubes, design) == int(ref.sum()), (
                seed,
                m,
            )


# ---------------------------------------------------------------------------
# Sampled estimator.
# ---------------------------------------------------------------------------


def estimate_slice_costs_reference(
    core, design, *, samples: int = DEFAULT_SAMPLES
) -> np.ndarray:
    """Scalar reference for ``estimate_slice_costs``.

    Replays the identical random draws, then accounts the group costs
    with plain Python loops.
    """
    if design.scan_in_max == 0:
        return np.ones(samples, dtype=np.int64)
    targets, group_ids, _ = _sampled_target_groups(core, design, samples)
    costs = np.empty(samples, dtype=np.int64)
    cursor = 0
    for index, count in enumerate(targets.tolist()):
        per_group: dict[int, int] = {}
        for group in group_ids[cursor : cursor + count].tolist():
            per_group[group] = per_group.get(group, 0) + 1
        cursor += count
        cost = 1
        for hits in per_group.values():
            cost += 2 if hits >= GROUP_COPY_THRESHOLD else hits
        costs[index] = cost
    return costs


class TestEstimatorDifferential:
    #: ckt cores drive the estimate mode on the System SOCs.
    CKT_CORES = ("ckt-1", "ckt-5", "ckt-11")

    def _cores(self):
        by_name = {c.name: c for c in load_design("System4").cores}
        return [by_name[name] for name in self.CKT_CORES]

    def test_vectorized_costs_match_reference(self):
        for core in self._cores():
            for m in (1, 3, 8, 33):
                design = design_wrapper(core, m)
                fast = estimate_slice_costs(core, design, samples=192)
                ref = estimate_slice_costs_reference(core, design, samples=192)
                assert np.array_equal(fast, ref), (core.name, m)

    def test_batch_matches_per_design_calls(self):
        for core in self._cores():
            designs = [design_wrapper(core, m) for m in (1, 2, 5, 9, 17, 40)]
            batch = estimate_codewords_batch(core, designs, samples=192)
            singles = [
                estimate_codewords(core, d, samples=192) for d in designs
            ]
            assert batch == singles, core.name

    def test_batch_on_fuzz_cores(self):
        for seed in range(FUZZ_SEEDS):
            rng = random.Random(20_000 + seed)
            core = random_core(rng, seed)
            ms = sorted({rng.randint(1, 10) for _ in range(4)})
            designs = [design_wrapper(core, m) for m in ms]
            batch = estimate_codewords_batch(core, designs, samples=64)
            singles = [
                estimate_codewords(core, d, samples=64) for d in designs
            ]
            assert batch == singles, seed


# ---------------------------------------------------------------------------
# Analysis points: the batched pass vs. one design at a time.
# ---------------------------------------------------------------------------


def scalar_point(analysis: CoreAnalysis, m: int) -> CompressedPoint:
    """Reference evaluation of one ``m``: per-``m`` BFD, one codeword count.

    The test-time model is DESIGN.md section 3: one ATE cycle per
    codeword, one capture cycle per pattern, and a final flush.
    """
    core = analysis.core
    design = _design_wrapper_uncached(core, m)
    if analysis.mode == "exact":
        codewords = int(slice_costs(analysis.cubes.slices(design)).sum())
    else:
        codewords = estimate_codewords(
            core, design, samples=analysis.samples
        ).total_codewords
    _, w = code_parameters(m)
    si, so = design.scan_in_max, design.scan_out_max
    return CompressedPoint(
        m=m,
        code_width=w,
        scan_in_max=si,
        scan_out_max=so,
        codewords=codewords,
        test_time=codewords + core.patterns + min(si, so),
        volume=codewords * w,
        exact=analysis.mode == "exact",
    )


class TestAnalysisPointsDifferential:
    def _check(self, analysis, ms):
        points = analysis.sweep_wrapper_chains(ms)
        for m, point in zip(ms, points):
            assert point == scalar_point(analysis, m), (analysis.core.name, m)

    def test_exact_points_on_fuzz_cores(self):
        for seed in range(FUZZ_SEEDS):
            rng = random.Random(35_000 + seed)
            core = random_core(rng, seed)
            useful = core.max_useful_wrapper_chains
            ms = sorted({1, 2, *(rng.randint(1, useful + 6) for _ in range(4))})
            self._check(CoreAnalysis(core, mode="exact"), ms)

    def test_estimate_points_on_ckt_cores(self):
        by_name = {c.name: c for c in load_design("System4").cores}
        for name in TestEstimatorDifferential.CKT_CORES:
            analysis = CoreAnalysis(by_name[name], mode="estimate", samples=192)
            self._check(analysis, [1, 2, 3, 8, 33])


# ---------------------------------------------------------------------------
# Wrapper BFD batch.
# ---------------------------------------------------------------------------


class TestWrapperBatchDifferential:
    def _check_core(self, core, ms):
        clear_wrapper_design_cache()
        batch = design_wrappers_batch(core, ms)
        try:
            for m in ms:
                expected = _design_wrapper_uncached(core, m)
                assert batch[m] == expected, (core.name, m)
                assert batch[m].scan_in_max == expected.scan_in_max
                assert batch[m].scan_out_max == expected.scan_out_max
        finally:
            clear_wrapper_design_cache()

    @pytest.mark.parametrize("design_name", ["d695", "System1"])
    def test_batch_matches_sequential_bfd(self, design_name):
        for core in load_design(design_name).cores:
            self._check_core(core, list(BENCH_MS))

    def test_batch_on_fuzz_cores(self):
        for seed in range(FUZZ_SEEDS):
            rng = random.Random(30_000 + seed)
            core = random_core(rng, seed)
            ms = sorted({rng.randint(1, 14) for _ in range(5)})
            self._check_core(core, ms)

    @pytest.mark.parametrize("design_name", ["d695", "synth20"])
    def test_surplus_chain_counts(self, design_name):
        """Counts past the useful one pad its design with empty chains."""
        for core in load_design(design_name).cores:
            useful = core.max_useful_wrapper_chains
            self._check_core(core, range(1, useful + 20))
            # Surplus counts alone: the padded base is designed, or read
            # from the memo when it is already there.
            self._check_core(core, [useful + 1, useful + 7])
            clear_wrapper_design_cache()
            base = design_wrappers_batch(core, [useful])[useful]
            batch = design_wrappers_batch(core, [useful + 3])
            assert batch[useful + 3] == _design_wrapper_uncached(core, useful + 3)
            assert batch[useful + 3].chains_scan[:useful] == base.chains_scan
            clear_wrapper_design_cache()

    def test_surplus_chain_counts_on_fuzz_cores(self):
        for seed in range(FUZZ_SEEDS):
            rng = random.Random(31_000 + seed)
            core = random_core(rng, seed)
            useful = core.max_useful_wrapper_chains
            ms = sorted({rng.randint(1, useful + 12) for _ in range(6)})
            self._check_core(core, ms)


#: The scan-length values a design leaves a BFD pass with.
SEEDED = ("scan_in_lengths", "scan_out_lengths", "scan_in_max", "scan_out_max")


def _assert_seeded_like_summed(design, where):
    """Seeded lengths and maxima equal an unseeded twin's sums."""
    assert set(SEEDED) <= set(vars(design)), where
    twin = WrapperDesign(
        design.core, design.chains_scan, design.chains_inputs, design.chains_outputs
    )
    for name in SEEDED:
        seeded, summed = getattr(design, name), getattr(twin, name)
        assert seeded == summed, (where, name)
        assert type(seeded) is type(summed), (where, name)
    assert all(type(length) is int for length in design.scan_in_lengths), where
    assert all(type(length) is int for length in design.scan_out_lengths), where


class TestSeededScanLengths:
    """BFD designs carry the scan lengths their loads already hold."""

    def _check_core(self, core):
        useful = core.max_useful_wrapper_chains
        ms = range(1, 2 * useful + 1)
        clear_wrapper_design_cache()
        try:
            batch = design_wrappers_batch(core, ms)
            for m in ms:
                _assert_seeded_like_summed(batch[m], (core.name, m, "batch"))
                scalar = _design_wrapper_uncached(core, m)
                _assert_seeded_like_summed(scalar, (core.name, m, "scalar"))
            # Surplus counts padded from a memoized base.
            clear_wrapper_design_cache()
            design_wrappers_batch(core, [useful])
            for m, design in design_wrappers_batch(
                core, range(useful + 1, 2 * useful + 1)
            ).items():
                _assert_seeded_like_summed(design, (core.name, m, "padded"))
            clear_wrapper_design_cache()
            for m in ms:
                _assert_seeded_like_summed(
                    design_wrapper(core, m), (core.name, m, "memo")
                )
        finally:
            clear_wrapper_design_cache()

    def test_on_fuzz_cores(self):
        for seed in range(FUZZ_SEEDS):
            rng = random.Random(32_000 + seed)
            self._check_core(random_core(rng, seed))

    @pytest.mark.parametrize("design_name", ["d695", "synth20"])
    def test_on_benchmark_cores(self, design_name):
        for core in load_design(design_name).cores:
            self._check_core(core)

    def test_batch_designs_arrive_seeded(self):
        core = load_design("d695").cores[0]
        clear_wrapper_design_cache()
        try:
            for m, design in design_wrappers_batch(core, range(1, 40)).items():
                assert "scan_in_lengths" in vars(design), m
                assert "scan_out_lengths" in vars(design), m
        finally:
            clear_wrapper_design_cache()


# ---------------------------------------------------------------------------
# Scheduler and partition search.
# ---------------------------------------------------------------------------


def reference_schedule_cores(core_names, widths, time_of) -> ScheduleOutcome:
    """The list heuristic as one loop of ``time_of`` calls.

    Cores sorted longest-first at the widest TAM (ties by name), each
    placed where the makespan grows least, then on the earliest finish,
    then on the lowest TAM index.
    """
    widest = max(widths)
    order = sorted(
        range(len(core_names)),
        key=lambda i: (-time_of(core_names[i], widest), core_names[i]),
    )
    loads = [0] * len(widths)
    assignment = [-1] * len(core_names)
    for index in order:
        name = core_names[index]
        current_makespan = max(loads)
        best_tam, best_key = -1, None
        for tam, width in enumerate(widths):
            finish = loads[tam] + time_of(name, width)
            key = (max(current_makespan, finish), finish, tam)
            if best_key is None or key < best_key:
                best_key, best_tam = key, tam
        assignment[index] = best_tam
        loads[best_tam] += time_of(name, widths[best_tam])
    return ScheduleOutcome(
        widths=tuple(widths), makespan=max(loads), assignment=tuple(assignment)
    )


def _random_table(rng, low=1, high=400, max_cores=12):
    names = [f"c{i}" for i in range(rng.randint(1, max_cores))]
    times = {
        (name, w): rng.randint(low, high)
        for name in names
        for w in range(1, 33)
    }
    return names, (lambda name, w: times[(name, w)])


def _random_partitions(rng, count, tams=None):
    """``count`` width vectors in no particular order, some repeated.

    Widths are unsorted and drawn independently, so one TAM count holds
    several widest widths; ``tams`` fixes the TAM count of them all.
    """
    out = []
    for _ in range(count):
        if out and rng.random() < 0.1:
            out.append(rng.choice(out))
            continue
        size = tams or rng.randint(1, 6)
        out.append(tuple(rng.randint(1, 32) for _ in range(size)))
    return out


def _reference_makespans(names, partitions, time_of):
    return np.array(
        [
            reference_schedule_cores(names, p, time_of).makespan
            for p in partitions
        ],
        dtype=np.int64,
    )


class TestSchedulerDifferential:
    def test_indexed_matches_scalar_on_random_tables(self):
        for seed in range(FUZZ_SEEDS):
            rng = random.Random(40_000 + seed)
            names, time_of = _random_table(rng)
            table = TimeTable(names, time_of)
            for _ in range(5):
                widths = tuple(
                    rng.randint(1, 32) for _ in range(rng.randint(1, 6))
                )
                expected = reference_schedule_cores(names, widths, time_of)
                assert schedule_cores_indexed(table, widths) == expected, (
                    seed,
                    widths,
                )
                assert schedule_cores(names, widths, time_of) == expected

    def test_batch_makespans_match_scalar(self):
        for seed in range(FUZZ_SEEDS):
            rng = random.Random(50_000 + seed)
            names, time_of = _random_table(rng)
            table = TimeTable(names, time_of)
            total = rng.randint(1, 28)
            max_parts = rng.randint(1, 6)
            min_width = rng.randint(1, max(1, total // 2))
            parts = partitions_list(total, max_parts, min_width)
            batch = schedule_makespans_batch(table, parts)
            ref = np.array(
                [
                    reference_schedule_cores(names, p, time_of).makespan
                    for p in parts
                ],
                dtype=np.int64,
            )
            assert np.array_equal(batch, ref), (seed, total, max_parts)

    def test_exhaustive_search_matches_scalar_loop(self):
        """Vectorized argmin keeps the scalar loop's first-win tie-break."""
        for seed in range(FUZZ_SEEDS):
            rng = random.Random(60_000 + seed)
            names, time_of = _random_table(rng)
            total = rng.randint(1, 24)
            fast = run_search(names, total, time_of, strategy="exhaustive")
            best = None
            for widths in partitions_list(total, min(len(names), 6), 1):
                outcome = reference_schedule_cores(names, widths, time_of)
                if best is None or outcome.makespan < best.makespan:
                    best = outcome
            assert fast.outcome == best, seed
            assert fast.partitions_evaluated == len(
                partitions_list(total, min(len(names), 6), 1)
            )

    def test_zero_and_tied_times(self):
        """Times of 0..3 tie often; both kernels keep the first minimum."""
        for seed in range(FUZZ_SEEDS):
            rng = random.Random(41_000 + seed)
            names, time_of = _random_table(rng, low=0, high=3)
            table = TimeTable(names, time_of)
            parts = list(partitions_list(rng.randint(1, 20), 6, 1))
            parts += _random_partitions(rng, 40)
            batch = schedule_makespans_batch(table, parts)
            ref = _reference_makespans(names, parts, time_of)
            assert np.array_equal(batch, ref), seed
            for widths in parts[:: max(1, len(parts) // 20)]:
                expected = reference_schedule_cores(names, widths, time_of)
                assert schedule_cores_indexed(table, widths) == expected, (
                    seed,
                    widths,
                )

    def test_unsorted_and_duplicate_partitions(self):
        """Any width vectors, in any order, repeated, mixed TAM counts."""
        for seed in range(FUZZ_SEEDS):
            rng = random.Random(42_000 + seed)
            names, time_of = _random_table(rng)
            table = TimeTable(names, time_of)
            parts = _random_partitions(rng, 60)
            batch = schedule_makespans_batch(table, parts)
            ref = _reference_makespans(names, parts, time_of)
            assert np.array_equal(batch, ref), seed

    def test_more_partitions_than_one_chunk(self):
        """A TAM count holding more partitions than one pass advances."""
        for seed in range(max(1, FUZZ_SEEDS // 12)):
            rng = random.Random(43_000 + seed)
            names, time_of = _random_table(rng, max_cores=6)
            table = TimeTable(names, time_of)
            parts = _random_partitions(
                rng, 2 * scheduler._CHUNK + rng.randint(1, 300),
                tams=rng.randint(2, 5),
            )
            parts += _random_partitions(rng, rng.randint(1, 300))
            rng.shuffle(parts)
            batch = schedule_makespans_batch(table, parts)
            ref = _reference_makespans(names, parts, time_of)
            assert np.array_equal(batch, ref), seed

    def test_empty_batch(self):
        table = TimeTable(["a"], lambda n, w: w)
        assert schedule_makespans_batch(table, []).tolist() == []
        no_cores = TimeTable([], lambda n, w: w)
        assert schedule_makespans_batch(no_cores, [(3, 1)]).tolist() == [0]

    def test_batch_rejects_bad_widths(self):
        table = TimeTable(["a"], lambda n, w: w)
        with pytest.raises(ValueError, match="at least one TAM"):
            schedule_makespans_batch(table, [()])
        with pytest.raises(ValueError, match=r"got \(2, 0\)"):
            schedule_makespans_batch(table, [(2, 0)])
        # The first bad partition decides the message, as in a loop of
        # schedule_cores_indexed calls.
        with pytest.raises(ValueError, match=r"got \(3, -1\)"):
            schedule_makespans_batch(table, [(4,), (3, -1), (), (0,)])
        with pytest.raises(ValueError, match="at least one TAM"):
            schedule_makespans_batch(table, [(4,), (), (3, -1)])

    def test_batch_transient_memory_is_bounded(self):
        """d2758 at W=64: 26,207 partitions in at most 4 MiB of temporaries."""
        soc = load_design("d2758")
        tables = LookupTables(
            {
                core.name: analysis_for(core, mode="exact")
                for core in soc.cores
            },
            "per-core",
            64,
        )
        table = TimeTable([core.name for core in soc.cores], tables.time_of)
        parts = partitions_list(64, 6, 1)
        schedule_makespans_batch(table, parts)  # fill the table rows
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            schedule_makespans_batch(table, parts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before <= 4 * 2**20, peak - before

    def test_on_benchmark_tables(self):
        """Same checks over real DSE-backed time tables (d695 cores)."""
        soc = load_design("d695")
        tables = LookupTables(
            {
                core.name: analysis_for(core, mode="exact")
                for core in soc.cores
            },
            "per-core",
            12,
        )
        names = [core.name for core in soc.cores]
        time_of = tables.time_of
        table = TimeTable(names, time_of)
        parts = partitions_list(12, 4, 1)
        batch = schedule_makespans_batch(table, parts)
        for widths, makespan in zip(parts, batch.tolist()):
            scalar = reference_schedule_cores(names, widths, time_of)
            assert scalar == schedule_cores_indexed(table, widths)
            assert scalar.makespan == makespan, widths


# ---------------------------------------------------------------------------
# Whole plans.
# ---------------------------------------------------------------------------


def _plan_fingerprint(result):
    return (
        result.architecture,
        result.test_time,
        result.test_data_volume,
        result.tam_widths,
        result.partitions_evaluated,
        result.strategy,
    )


def _plan_cold(soc, width, config):
    clear_analysis_cache()
    clear_wrapper_design_cache()
    return plan(soc, width, config)


CATALOG = ("d695", "d2758", "System1", "System2", "System3", "System4")


@pytest.mark.parametrize("design_name", CATALOG)
def test_plans_bit_identical_on_catalog(design_name):
    """Every catalog SOC plans to its golden fingerprint, cold.

    The plan additionally passes the independent invariant checker, so
    the fast kernels cannot have bought an inconsistent plan.
    """
    soc = load_design(design_name)
    config = RunConfig(use_cache=False)
    result = _plan_cold(soc, 16, config)
    assert fingerprint(result) == golden()[design_name]["per-core@16"]
    report = verify_plan(result, soc, config=config)
    assert report.ok, "\n".join(v.format() for v in report.violations)


def test_plans_bit_identical_on_fuzz_socs(tmp_path):
    """Lazily filled and precomputed analyses plan random SOCs alike.

    A disk cache sends the analyses through ``CoreAnalysis.precompute``
    (the ``--jobs``/cache path) instead of the lookup-table rows.
    """
    for seed in range(PLAN_SEEDS):
        rng = random.Random(70_000 + seed)
        soc = random_soc(rng)
        width = rng.randint(4, 20)
        config = RunConfig(compression="per-core", mode="exact", use_cache=False)
        lazy = _plan_cold(soc, width, config)
        cached = config.replace(use_cache=True, cache_dir=str(tmp_path / str(seed)))
        precomputed = _plan_cold(soc, width, cached)
        assert _plan_fingerprint(lazy) == _plan_fingerprint(precomputed), seed
        report = verify_plan(lazy, soc, config=config)
        assert report.ok, (seed, [v.format() for v in report.violations])
    clear_analysis_cache()
    clear_wrapper_design_cache()
