"""Design-space exploration of per-core decompressor configurations.

:class:`CoreAnalysis` answers, for one core, the questions the SOC-level
optimizer asks (the paper's steps 1-2):

* ``uncompressed_point(w)`` -- wrapper design and test time on a
  ``w``-wide TAM without TDC;
* ``compressed_point(m)`` -- decompressor with ``m`` wrapper chains (the
  code width ``w`` follows from ``m``), its codeword count, test time and
  compressed volume;
* ``sweep_code_width(w)`` / ``best_for_code_width(w)`` -- all / the best
  ``m`` whose code width is exactly ``w`` (Figures 2 and 3);
* ``best_compressed_for_tam(W)`` -- the best configuration whose code
  width fits a ``W``-wide TAM (what scheduling uses; monotone in ``W``
  by construction even though ``tau_c`` itself is non-monotonic), read
  from a running prefix minimum over the code widths;
  ``best_compressed_row(W)`` is that answer at every width ``1..W``.

Small cores (d695/d2758 class) are analyzed *exactly*: their synthetic
cubes are materialized and run through the bit-accurate slice-cost
kernel.  Industrial-scale cores use the sampled estimator
(:mod:`repro.compression.estimator`); the two paths share the same cost
model and are cross-validated in the test suite.

Compressed test-time model (DESIGN.md section 3)::

    tau_c = total codewords + p + min(si, so)

one ATE cycle per codeword, one capture cycle per pattern, and a final
response flush.
"""

from __future__ import annotations

import contextlib
import time
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Literal, Sequence

import numpy as np

from repro import obs
from repro.compression.cubes import TestCubeSet, generate_cubes
from repro.compression.estimator import DEFAULT_SAMPLES, estimate_codewords_batch
from repro.compression.hotpath import exact_codeword_totals, symbol_table
from repro.compression.selective import code_parameters, slice_width_range
from repro.explore.cache import AnalysisDiskCache, analysis_fingerprint
from repro.parallel import parallel_map, resolve_jobs
from repro.soc.core import Core
from repro.wrapper.design import design_wrapper, design_wrappers_batch
from repro.wrapper.timing import scan_test_time, uncompressed_tam_volume

Mode = Literal["auto", "exact", "estimate"]


class SnapshotError(ValueError):
    """A serialized analysis table is malformed or mismatched."""

#: Cores with at most this many cube cells are analyzed exactly.
EXACT_CELL_LIMIT = 4_000_000

#: Smallest meaningful code width (w = 3 covers m = 1).
MIN_CODE_WIDTH = 3

#: At most this many m values are evaluated per code width.
DEFAULT_GRID = 48




@dataclass(frozen=True)
class UncompressedPoint:
    """Wrapper design outcome on a ``w``-wide TAM without TDC."""

    tam_width: int
    scan_in_max: int
    scan_out_max: int
    test_time: int
    volume: int


@dataclass(frozen=True)
class CompressedPoint:
    """Decompressor configuration outcome for one core."""

    m: int
    code_width: int
    scan_in_max: int
    scan_out_max: int
    codewords: int
    test_time: int
    volume: int
    exact: bool

    @property
    def w(self) -> int:
        """Alias matching the paper's notation for the TAM-side width."""
        return self.code_width


class CoreAnalysis:
    """Per-core (w, m) design-space exploration with caching."""

    def __init__(
        self,
        core: Core,
        *,
        mode: Mode = "auto",
        samples: int = DEFAULT_SAMPLES,
        grid: int = DEFAULT_GRID,
        cubes: TestCubeSet | None = None,
    ) -> None:
        if mode not in ("auto", "exact", "estimate"):
            raise ValueError(f"unknown mode {mode!r}")
        if grid < 2:
            raise ValueError(f"grid must be >= 2, got {grid}")
        self.core = core
        self.samples = samples
        self.grid = grid
        if cubes is not None:
            # Externally supplied (e.g. real ATPG) cubes force the
            # exact path: the estimator only knows the synthetic model.
            if cubes.core != core:
                raise ValueError("cube set belongs to a different core")
            if mode == "estimate":
                raise ValueError("cannot combine external cubes with estimate mode")
            mode = "exact"
        elif mode == "auto":
            cells = core.patterns * core.scan_in_bits
            mode = "exact" if cells <= EXACT_CELL_LIMIT else "estimate"
        self.mode: str = mode
        self._cubes: TestCubeSet | None = cubes
        self._external_cubes = cubes is not None
        self._uncompressed: dict[int, UncompressedPoint] = {}
        self._compressed: dict[int, CompressedPoint] = {}
        self._best_by_width: dict[int, CompressedPoint | None] = {}
        # Running minimum of best_for_code_width: entry w is the answer
        # of best_compressed_for_tam(w); no code fits below MIN_CODE_WIDTH.
        self._best_prefix: list[CompressedPoint | None] = [None] * MIN_CODE_WIDTH
        self._precomputed_width = 0
        self._symbols: np.ndarray | None = None  # hotpath symbol table

    # ------------------------------------------------------------------

    @property
    def cubes(self) -> TestCubeSet:
        """Materialized cube set (exact mode only)."""
        if self.mode != "exact":
            raise RuntimeError(
                f"{self.core.name} is analyzed in estimate mode; "
                "cubes are not materialized"
            )
        if self._cubes is None:
            self._cubes = generate_cubes(self.core)
        return self._cubes

    #: How many code widths beyond the core's useful range are explored.
    #: A decompressor may be built wider than the core can exploit (its
    #: surplus outputs idle); the paper's Figure 3 evaluates such widths
    #: and finds them non-improving.
    EXTRA_CODE_WIDTHS = 3

    @cached_property
    def max_code_width(self) -> int:
        """Largest code width the exploration considers."""
        m = self.core.max_useful_wrapper_chains
        _, w = code_parameters(m)
        return w + self.EXTRA_CODE_WIDTHS

    # ------------------------------------------------------------------
    # Uncompressed side (paper step 1)
    # ------------------------------------------------------------------

    def uncompressed_point(self, tam_width: int) -> UncompressedPoint:
        """Test time/volume on a plain ``tam_width``-wide TAM."""
        if tam_width < 1:
            raise ValueError(f"TAM width must be >= 1, got {tam_width}")
        point = self._uncompressed.get(tam_width)
        if point is None:
            design = design_wrapper(self.core, tam_width)
            time = scan_test_time(
                self.core.patterns, design.scan_in_max, design.scan_out_max
            )
            point = UncompressedPoint(
                tam_width=tam_width,
                scan_in_max=design.scan_in_max,
                scan_out_max=design.scan_out_max,
                test_time=time,
                volume=uncompressed_tam_volume(self.core, design),
            )
            self._uncompressed[tam_width] = point
        return point

    def uncompressed_points(self, widths: Sequence[int]) -> list[UncompressedPoint]:
        """:meth:`uncompressed_point` of every width, in order.

        Memoized points are read directly, so after :meth:`precompute`
        this is one call rather than one per width.
        """
        row = list(map(self._uncompressed.get, widths))
        if all(row):  # every width memoized (points are truthy)
            return row
        return [point or self.uncompressed_point(w) for w, point in zip(widths, row)]

    # ------------------------------------------------------------------
    # Compressed side (paper step 2)
    # ------------------------------------------------------------------

    def compressed_point(self, m: int) -> CompressedPoint:
        """Decompressor outcome for exactly ``m`` wrapper chains."""
        if m < 1:
            raise ValueError(f"wrapper chain count must be >= 1, got {m}")
        point = self._compressed.get(m)
        if point is not None:
            return point
        self._ensure_points([m])
        return self._compressed[m]

    def _ensure_points(self, m_values: Iterable[int]) -> None:
        """Evaluate every missing ``m`` in one batched kernel pass.

        The wrapper BFD is batched across all chain counts and the fused
        codeword kernels (:mod:`repro.compression.hotpath` /
        :func:`~repro.compression.estimator.estimate_codewords_batch`)
        run over all missing designs at once.
        """
        missing = sorted(
            {int(m) for m in m_values if int(m) not in self._compressed}
        )
        for m in missing:
            if m < 1:
                raise ValueError(f"wrapper chain count must be >= 1, got {m}")
        if not missing:
            return
        designs_by_m = design_wrappers_batch(self.core, missing)
        designs = [designs_by_m[m] for m in missing]
        if self.mode == "exact":
            if self._symbols is None:
                self._symbols = symbol_table(self.cubes)
            totals = exact_codeword_totals(
                self.cubes, designs, symbols=self._symbols
            )
            codeword_counts = [int(total) for total in totals]
            exact = True
        else:
            stats = estimate_codewords_batch(
                self.core, designs, samples=self.samples
            )
            codeword_counts = [stat.total_codewords for stat in stats]
            exact = False
        for m, design, codewords in zip(missing, designs, codeword_counts):
            self._compressed[m] = self._build_point(
                m, design.scan_in_max, design.scan_out_max, codewords, exact
            )

    def _build_point(
        self, m: int, si: int, so: int, codewords: int, exact: bool
    ) -> CompressedPoint:
        _, w = code_parameters(m)
        time = codewords + self.core.patterns + min(si, so)
        return CompressedPoint(
            m=m,
            code_width=w,
            scan_in_max=si,
            scan_out_max=so,
            codewords=codewords,
            test_time=time,
            volume=codewords * w,
            exact=exact,
        )

    def m_grid_for_code_width(self, w: int) -> list[int]:
        """Slice widths evaluated for code width ``w`` (grid-limited).

        All of ``slice_width_range(w)`` when small; otherwise an evenly
        spaced subset that always includes both endpoints and -- when it
        falls in range -- the core's scan-chain count (the structurally
        interesting point where every scan chain gets its own wrapper
        chain).
        """
        if w > self.max_code_width:
            return []
        full = slice_width_range(w)
        rng = slice_width_range(w, self.core.max_useful_wrapper_chains)
        values = list(rng)
        if not values:
            # The whole range lies beyond the useful chain count: the
            # decompressor can still be built (surplus outputs idle); the
            # narrowest such slice width dilutes the groups least.
            return [full.start]
        if len(values) <= self.grid:
            return values
        picks = np.unique(
            np.linspace(values[0], values[-1], self.grid).round().astype(int)
        )
        chosen = set(int(v) for v in picks)
        chains = self.core.num_scan_chains
        if values[0] <= chains <= values[-1]:
            chosen.add(chains)
        return sorted(chosen)

    def sweep_code_width(self, w: int) -> list[CompressedPoint]:
        """All evaluated configurations with code width exactly ``w``."""
        grid = self.m_grid_for_code_width(w)
        self._ensure_points(grid)
        return [self.compressed_point(m) for m in grid]

    def sweep_wrapper_chains(self, m_values: list[int] | range) -> list[CompressedPoint]:
        """Evaluate explicit wrapper-chain counts (Figure 2 style)."""
        self._ensure_points(m_values)
        return [self.compressed_point(m) for m in m_values]

    def best_for_code_width(self, w: int) -> CompressedPoint | None:
        """Fastest configuration whose code width is exactly ``w``.

        This is one point of the paper's Figure 3.  Returns ``None`` when
        no useful slice width maps to ``w`` for this core.
        """
        if w in self._best_by_width:
            return self._best_by_width[w]
        points = self.sweep_code_width(w)
        best = min(points, key=lambda p: (p.test_time, p.m), default=None)
        self._best_by_width[w] = best
        return best

    def best_for_code_widths(
        self, widths: Iterable[int]
    ) -> list[CompressedPoint | None]:
        """:meth:`best_for_code_width` of every width, in order.

        Memoized widths are read directly, so a warm row is one call.
        """
        best = self._best_by_width
        return [best[w] if w in best else self.best_for_code_width(w) for w in widths]

    def best_compressed_for_tam(self, tam_width: int) -> CompressedPoint | None:
        """Fastest configuration whose code width fits ``tam_width`` wires.

        Unlike :meth:`best_for_code_width` this is monotone non-improving
        as ``tam_width`` shrinks, because narrower codes remain feasible
        on wider TAMs (surplus wires idle).  The answer is read from a
        running prefix minimum over the code widths (the narrowest wins
        a tie); a call past the widths covered so far first batches the
        new code widths through one kernel pass.
        """
        top = min(tam_width, self.max_code_width)
        if top < MIN_CODE_WIDTH:
            return None
        return self._prefix_through(top)[top]

    def _prefix_through(self, top: int) -> list[CompressedPoint | None]:
        """The prefix-minimum list, extended to cover code width ``top``.

        Threads share analyses (see :func:`analysis_for`), so an
        extension is built on a copy and published with one assignment:
        a concurrent reader sees either list, each in step with its
        widths.  Callers index the list returned, not the attribute.
        """
        prefix = self._best_prefix
        if top < len(prefix):
            return prefix
        widths = range(len(prefix), top + 1)
        self._ensure_points(
            m
            for w in widths
            if w not in self._best_by_width
            for m in self.m_grid_for_code_width(w)
        )
        extended = list(prefix)
        best = extended[-1]
        for w in widths:
            candidate = self.best_for_code_width(w)
            if candidate is not None and (
                best is None or candidate.test_time < best.test_time
            ):
                best = candidate
            extended.append(best)
        self._best_prefix = extended
        return extended

    def best_compressed_row(self, max_tam_width: int) -> list[CompressedPoint | None]:
        """:meth:`best_compressed_for_tam` of every width ``1..max_tam_width``.

        Entry ``w - 1`` is the answer for width ``w``; the whole row
        costs one prefix extension, made by :meth:`best_compressed_for_tam`
        so that profiles charge the kernel pass to the public lookup.
        """
        top = min(max_tam_width, self.max_code_width)
        self.best_compressed_for_tam(top)
        prefix = self._prefix_through(top)  # re-extends after a racing publish
        return prefix[1 : top + 1] + [prefix[top]] * (max_tam_width - top)

    # ------------------------------------------------------------------
    # Scheduling-facing summary
    # ------------------------------------------------------------------

    def time_at_tam(self, tam_width: int, *, compression: str) -> int:
        """Test time on a ``tam_width``-wide TAM under a compression mode.

        The time of the configuration the compression policy picks
        (:func:`repro.explore.selection.choose`) for ``compression``, one
        of ``none``, ``per-core``, ``auto`` and ``select``.
        """
        from repro.explore.selection import choose  # it imports this module

        return choose(self, tam_width, compression).test_time

    def volume_at_tam(self, tam_width: int, *, compression: str) -> int:
        """Stimulus volume matching :meth:`time_at_tam`'s choice."""
        from repro.explore.selection import choose

        return choose(self, tam_width, compression).volume

    def relative_spread(self, w: int) -> float:
        """``(tau_max - tau_min) / tau_max`` over code width ``w``'s sweep.

        The quantity the paper annotates in Figure 2 (31% for ckt-7 at
        w = 10).
        """
        points = self.sweep_code_width(w)
        if not points:
            raise ValueError(f"no feasible slice widths for code width {w}")
        times = [p.test_time for p in points]
        hi, lo = max(times), min(times)
        return (hi - lo) / hi if hi else 0.0

    # ------------------------------------------------------------------
    # Persistence: precompute / snapshot / restore
    # ------------------------------------------------------------------

    @property
    def fingerprint(self) -> str | None:
        """Content address for the persistent cache, or ``None``.

        Analyses over externally supplied cube sets are keyed by object
        identity and cannot be content-addressed; they never hit disk.
        """
        if self._external_cubes:
            return None
        return analysis_fingerprint(
            self.core, mode=self.mode, samples=self.samples, grid=self.grid
        )

    def is_complete_for(self, max_tam_width: int) -> bool:
        """Whether every lookup up to ``max_tam_width`` is already cached."""
        return self._precomputed_width >= max_tam_width

    def precompute(self, max_tam_width: int, *, compression: str = "auto") -> None:
        """Eagerly evaluate every lookup the optimizer can ask for.

        Covers the uncompressed point of every TAM width up to the
        budget and the best-``m`` sweep of every feasible code width --
        every query the compression policy issues at those widths.
        Under ``compression="none"`` only the uncompressed points, all
        that mode reads, are evaluated and the width is not marked
        covered.  Idempotent; only missing points are designed, in one
        batched BFD pass, so a warm analysis pays no wrapper design here.
        """
        if max_tam_width < 1:
            raise ValueError(f"TAM width must be >= 1, got {max_tam_width}")
        if self.is_complete_for(max_tam_width):
            return
        missing = [
            w for w in range(1, max_tam_width + 1) if w not in self._uncompressed
        ]
        if missing:
            # One batched BFD pass warms the wrapper cache for every
            # width the loop below asks for.
            design_wrappers_batch(self.core, missing)
            for w in missing:
                self.uncompressed_point(w)
        if compression == "none":
            return
        # The same one-batch prefix extension the lookup-table rows use.
        self.best_compressed_for_tam(max_tam_width)
        self._precomputed_width = max(self._precomputed_width, max_tam_width)

    def snapshot(self) -> dict:
        """JSON-serializable dump of every evaluated lookup entry."""
        return {
            "core": self.core.name,
            "mode": self.mode,
            "grid": self.grid,
            "samples": self.samples,
            "precomputed_width": self._precomputed_width,
            "uncompressed": {
                str(w): [p.scan_in_max, p.scan_out_max, p.test_time, p.volume]
                for w, p in self._uncompressed.items()
            },
            "compressed": {
                str(m): [
                    p.code_width,
                    p.scan_in_max,
                    p.scan_out_max,
                    p.codewords,
                    p.test_time,
                    p.volume,
                    int(p.exact),
                ]
                for m, p in self._compressed.items()
            },
            "best_by_width": {
                str(w): (None if p is None else p.m)
                for w, p in self._best_by_width.items()
            },
        }

    def load_snapshot(self, payload: dict) -> None:
        """Merge a :meth:`snapshot` payload into the in-memory tables.

        Entries already evaluated locally win (they are equal anyway for
        a matching payload -- the analysis is deterministic).  Raises
        :class:`SnapshotError` on any structural defect; the caller
        treats that as a cache miss and recomputes.
        """
        try:
            if payload["core"] != self.core.name or payload["mode"] != self.mode:
                raise SnapshotError("snapshot is for a different analysis")
            if payload["grid"] != self.grid:
                raise SnapshotError("snapshot grid mismatch")
            if self.mode == "estimate" and payload["samples"] != self.samples:
                raise SnapshotError("snapshot sample-count mismatch")
            uncompressed = {}
            for key, row in payload["uncompressed"].items():
                si, so, time, volume = (int(v) for v in row)
                uncompressed[int(key)] = UncompressedPoint(
                    tam_width=int(key),
                    scan_in_max=si,
                    scan_out_max=so,
                    test_time=time,
                    volume=volume,
                )
            compressed = {}
            for key, row in payload["compressed"].items():
                code_width, si, so, codewords, time, volume, exact = (
                    int(v) for v in row
                )
                compressed[int(key)] = CompressedPoint(
                    m=int(key),
                    code_width=code_width,
                    scan_in_max=si,
                    scan_out_max=so,
                    codewords=codewords,
                    test_time=time,
                    volume=volume,
                    exact=bool(exact),
                )
            best_by_width: dict[int, CompressedPoint | None] = {}
            for key, m in payload["best_by_width"].items():
                if m is None:
                    best_by_width[int(key)] = None
                else:
                    best_by_width[int(key)] = compressed[int(m)]
            width = int(payload["precomputed_width"])
        except SnapshotError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(f"malformed analysis snapshot: {exc}") from exc
        for w, upoint in uncompressed.items():
            self._uncompressed.setdefault(w, upoint)
        for m, cpoint in compressed.items():
            self._compressed.setdefault(m, cpoint)
        for w, best in best_by_width.items():
            if w not in self._best_by_width:
                self._best_by_width[w] = best
        self._precomputed_width = max(self._precomputed_width, width)


# ---------------------------------------------------------------------------
# Parallel fan-out: one worker task per core.
# ---------------------------------------------------------------------------


def _precompute_observed(analysis: CoreAnalysis, max_tam_width: int) -> None:
    """Precompute one core's table under a per-core span + latency metric."""
    began = time.perf_counter()
    with obs.span(
        f"analyze:{analysis.core.name}",
        core=analysis.core.name,
        mode=analysis.mode,
        max_tam_width=max_tam_width,
    ):
        analysis.precompute(max_tam_width)
    obs.observe("analysis.core_seconds", time.perf_counter() - began)
    obs.inc("analysis.cores_computed")


def _snapshot_worker(
    task: tuple[Core, str, int, int, int, dict | None, bool],
) -> tuple[str, dict, dict[str, Any] | None]:
    """Compute one core's full lookup table; runs in a worker process.

    The optional seed payload carries entries already known to the
    parent (from the disk cache at a smaller width budget), so the
    worker only evaluates the genuinely missing region.

    When the parent runs under an enabled observability context it sets
    ``record_obs``; the worker then records its spans and metrics into a
    *fresh, task-scoped* context -- never the one a forked child may
    have inherited, which already holds the parent's history -- and
    ships the portable payload back for the parent to merge.
    """
    core, mode, samples, grid, max_tam_width, seed_payload, record_obs = task
    analysis = CoreAnalysis(core, mode=mode, samples=samples, grid=grid)
    if seed_payload is not None:
        try:
            analysis.load_snapshot(seed_payload)
        except SnapshotError:
            pass
    if not record_obs:
        analysis.precompute(max_tam_width)
        return core.name, analysis.snapshot(), None
    with obs.enabled() as local:
        _precompute_observed(analysis, max_tam_width)
        payload = {
            "spans": local.tracer.snapshot(),
            "metrics": local.registry.snapshot(),
        }
    return core.name, analysis.snapshot(), payload


def analyze_soc_cores(
    cores: Iterable[Core],
    *,
    mode: Mode = "auto",
    samples: int = DEFAULT_SAMPLES,
    grid: int = DEFAULT_GRID,
    max_tam_width: int | None = None,
    jobs: int | None = None,
    cache: AnalysisDiskCache | None = None,
) -> dict[str, CoreAnalysis]:
    """Analysis tables for a set of cores, parallel and/or persisted.

    The returned analyses come from (and feed) the in-process memo of
    :func:`analysis_for`.  With ``max_tam_width`` given, each core's
    table is completed up to that budget: first from the in-memory memo,
    then from ``cache`` (when provided), and finally by computing --
    fanned out over ``jobs`` worker processes when more than one is
    requested (see :func:`repro.parallel.resolve_jobs`).  Freshly
    computed tables are stored back to ``cache`` atomically.

    With ``jobs`` serial and no cache the analyses are returned unfilled:
    :class:`~repro.pipeline.tables.LookupTables` then computes exactly
    the entries its compression policy reads when it builds its rows.
    This fork only decides where the kernels run.  Results are
    bit-identical along every path; only the wall-clock differs.
    """
    analyses = {
        core.name: analysis_for(core, mode=mode, samples=samples, grid=grid)
        for core in cores
    }
    obs.inc("analysis.cores_requested", len(analyses))
    if max_tam_width is None or (resolve_jobs(jobs) <= 1 and cache is None):
        return analyses

    with obs.span(
        "analyze-cores", cores=len(analyses), max_tam_width=max_tam_width
    ) as span_attrs:
        pending: list[str] = []
        for name, analysis in analyses.items():
            if analysis.is_complete_for(max_tam_width):
                obs.inc("analysis.memo_complete")
                continue
            if cache is not None and analysis.fingerprint is not None:
                payload = cache.load(analysis.fingerprint)
                if payload is not None:
                    obs.inc("analysis.disk_cache.hits")
                    try:
                        analysis.load_snapshot(payload)
                    except SnapshotError:
                        pass
                else:
                    obs.inc("analysis.disk_cache.misses")
                if analysis.is_complete_for(max_tam_width):
                    continue
            pending.append(name)
        span_attrs["pending"] = len(pending)

        if pending:
            if resolve_jobs(jobs) <= 1:
                for name in pending:
                    _precompute_observed(analyses[name], max_tam_width)
            else:
                active = obs.current()
                parent_path = (
                    active.tracer.current_path() if active is not None else ""
                )
                tasks = []
                for name in pending:
                    analysis = analyses[name]
                    partially_warm = analysis._compressed or analysis._uncompressed
                    seed = analysis.snapshot() if partially_warm else None
                    tasks.append(
                        (
                            analysis.core,
                            analysis.mode,
                            analysis.samples,
                            analysis.grid,
                            max_tam_width,
                            seed,
                            active is not None,
                        )
                    )
                for name, payload, worker_obs in parallel_map(
                    _snapshot_worker, tasks, jobs=jobs
                ):
                    analyses[name].load_snapshot(payload)
                    if worker_obs is not None and active is not None:
                        active.tracer.merge(
                            worker_obs["spans"], parent_path=parent_path
                        )
                        active.registry.merge(worker_obs["metrics"])
            if cache is not None:
                for name in pending:
                    fingerprint = analyses[name].fingerprint
                    if fingerprint is not None:
                        cache.store(fingerprint, analyses[name].snapshot())
    return analyses


# ---------------------------------------------------------------------------
# Module-level analysis cache: experiments repeatedly analyze the same
# cores (e.g. ckt-2 appears in System1, System2, System3 and System4).
# ---------------------------------------------------------------------------

#: Upper bound on memoized analyses.  Above ``MAX_SYNTHETIC_CORES``
#: (512), so one plan never evicts its own cores; a long-lived process
#: planning an open-ended stream of SOCs evicts the least recently used.
ANALYSIS_CACHE_MAX_ENTRIES = 4096

_CACHE: OrderedDict[tuple[Core, str, int, int, int | None], CoreAnalysis] = (
    OrderedDict()
)


def analysis_for(
    core: Core,
    *,
    mode: Mode = "auto",
    samples: int = DEFAULT_SAMPLES,
    grid: int = DEFAULT_GRID,
    cubes: TestCubeSet | None = None,
) -> CoreAnalysis:
    """Shared, memoized :class:`CoreAnalysis` for a core.

    External ``cubes`` are keyed by object identity: reuse the same
    :class:`TestCubeSet` instance to share the analysis.
    """
    key = (core, mode, samples, grid, id(cubes) if cubes is not None else None)
    analysis = _CACHE.get(key)
    if analysis is None:
        analysis = CoreAnalysis(
            core, mode=mode, samples=samples, grid=grid, cubes=cubes
        )
        _CACHE[key] = analysis
        while len(_CACHE) > ANALYSIS_CACHE_MAX_ENTRIES:
            _CACHE.popitem(last=False)
    else:
        # Between the get and here a concurrent call may have evicted it.
        with contextlib.suppress(KeyError):
            _CACHE.move_to_end(key)
    return analysis


def clear_analysis_cache(cache: AnalysisDiskCache | None = None) -> None:
    """Drop all memoized analyses (tests use this for isolation).

    Always clears the in-process memo; when a disk cache is passed, its
    on-disk entries are deleted too, so both layers start cold.
    """
    _CACHE.clear()
    if cache is not None:
        cache.clear()
