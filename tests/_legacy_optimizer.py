"""Verbatim pre-pipeline optimizer, kept as the differential oracle.

This is the co-optimization flow exactly as it stood before
``repro.pipeline`` existed (module docstring below unchanged).  The
differential tests in ``test_differential_pipeline.py`` run it next to
the pipeline-backed entry points and require bit-identical plans.  Do
not "fix" or modernize this file -- its value is that it does not move.

The paper's co-optimization flow (section 3).

Four steps, per SOC and width budget:

1. *Wrapper-chain design* -- per core, wrapper designs for every
   candidate chain count (``repro.wrapper.design``, cached).
2. *Decompressor design* -- per core, the compressed test time
   ``tau_c(w, m)`` over all feasible decompressor I/O widths
   (``repro.explore.dse`` lookup tables).
3. *Test-architecture design* -- partition the top-level TAM width into
   fixed-width TAMs (``repro.core.partition``).
4. *Test scheduling* -- longest-first list scheduling onto the TAMs
   (``repro.core.scheduler``).

:func:`optimize_soc` runs the flow with per-core decompressors (the
paper's proposal, Figure 4(c)), without TDC (Figure 4(a)), or in an
"auto" mode (our extension) that lets each core bypass its decompressor
when compression does not pay -- relevant for the high-care-density
academic benchmarks.

:func:`optimize_per_tam` implements the Figure 4(b) alternative: one
decompressor per TAM, shared by every core on that TAM, so all of them
must use the same expanded width ``M_j``.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Literal

from repro.core.architecture import (
    CoreConfig,
    DecompressorPlacement,
    TestArchitecture,
)
from repro.core.partition import PartitionSearchResult, iter_partitions
from repro.search import run_search as search_partitions
from repro.core.scheduler import build_architecture, schedule_cores
from repro.explore.cache import AnalysisDiskCache, resolve_cache
from repro.explore.dse import (
    DEFAULT_GRID,
    CoreAnalysis,
    Mode,
    analyze_soc_cores,
)
from repro.compression.estimator import DEFAULT_SAMPLES
from repro.soc.soc import Soc

Compression = Literal["none", "per-core", "auto", "select"]


@dataclass(frozen=True)
class OptimizeResult:
    """Outcome of one co-optimization run."""

    soc_name: str
    width_budget: int
    compression: str
    architecture: TestArchitecture
    cpu_seconds: float
    partitions_evaluated: int
    strategy: str

    @property
    def test_time(self) -> int:
        return self.architecture.test_time

    @property
    def test_data_volume(self) -> int:
        return self.architecture.test_data_volume

    @property
    def tam_widths(self) -> tuple[int, ...]:
        return tuple(t.width for t in self.architecture.tams)


def _normalize_compression(compression: bool | str) -> Compression:
    if compression is True:
        return "per-core"
    if compression is False:
        return "none"
    if compression in ("none", "per-core", "auto", "select"):
        return compression  # type: ignore[return-value]
    raise ValueError(f"unknown compression mode {compression!r}")


class _LookupTables:
    """Per-SOC time/volume/config lookups backing the scheduler."""

    def __init__(
        self,
        soc: Soc,
        compression: Compression,
        *,
        mode: Mode,
        samples: int,
        grid: int,
        max_tam_width: int | None = None,
        jobs: int | None = None,
        cache: AnalysisDiskCache | None = None,
    ) -> None:
        self.compression = compression
        self.analyses: dict[str, CoreAnalysis] = analyze_soc_cores(
            soc.cores,
            mode=mode,
            samples=samples,
            grid=grid,
            max_tam_width=max_tam_width,
            jobs=jobs,
            cache=cache,
        )
        self._time_cache: dict[tuple[str, int], int] = {}
        self._selectors: dict[str, object] = {}

    def _pick(self, name: str, width: int) -> CoreConfig:
        analysis = self.analyses[name]
        if self.compression == "select":
            from repro.explore.selection import TechniqueSelector

            selector = self._selectors.get(name)
            if selector is None:
                selector = TechniqueSelector(analysis)
                self._selectors[name] = selector
            choice = selector.select(width)
            return CoreConfig(
                core_name=name,
                uses_compression=choice.technique != "none",
                wrapper_chains=choice.wrapper_chains,
                code_width=choice.code_width,
                test_time=choice.test_time,
                volume=choice.volume,
                technique=choice.technique,
            )
        plain = analysis.uncompressed_point(width)
        if self.compression == "none":
            best = None
        else:
            best = analysis.best_compressed_for_tam(width)
        use_compressed = best is not None and (
            self.compression == "per-core" or best.test_time < plain.test_time
        )
        if use_compressed:
            assert best is not None
            return CoreConfig(
                core_name=name,
                uses_compression=True,
                wrapper_chains=best.m,
                code_width=best.code_width,
                test_time=best.test_time,
                volume=best.volume,
            )
        return CoreConfig(
            core_name=name,
            uses_compression=False,
            wrapper_chains=min(width, analysis.core.max_useful_wrapper_chains),
            code_width=None,
            test_time=plain.test_time,
            volume=plain.volume,
        )

    def time_of(self, name: str, width: int) -> int:
        key = (name, width)
        value = self._time_cache.get(key)
        if value is None:
            value = self._pick(name, width).test_time
            self._time_cache[key] = value
        return value

    def config_of(self, name: str, width: int) -> CoreConfig:
        return self._pick(name, width)


def optimize_soc(
    soc: Soc,
    tam_width: int,
    *,
    compression: bool | str = True,
    mode: Mode = "auto",
    samples: int = DEFAULT_SAMPLES,
    grid: int = DEFAULT_GRID,
    max_tams: int | None = None,
    min_tam_width: int = 1,
    strategy: str = "auto",
    jobs: int | None = None,
    cache_dir: str | None = None,
    use_cache: bool | None = None,
) -> OptimizeResult:
    """Run the four-step co-optimization for a TAM width budget.

    Parameters
    ----------
    soc:
        The design to plan.
    tam_width:
        Top-level width budget ``W_TAM``.  With per-core decompression
        the ATE channel count equals the TAM width, so this same entry
        point serves the paper's Table 1 (``W_ATE``) and Table 2 /
        Table 3 (``W_TAM``) constraints.
    compression:
        ``True``/"per-core" (the paper), ``False``/"none" (the baseline
        of Table 3), or "auto" (per-core bypass extension).
    mode, samples, grid:
        Passed to the per-core design-space exploration.
    max_tams, min_tam_width, strategy:
        Partition-search controls (see :mod:`repro.core.partition`).
    jobs:
        Worker processes for the per-core analyses (default serial; see
        :func:`repro.parallel.resolve_jobs` for the env override).
    cache_dir, use_cache:
        Persistent analysis-cache controls (see
        :func:`repro.explore.cache.resolve_cache`).  The optimizer's
        result is bit-identical with or without the cache; only the
        wall-clock changes.
    """
    if tam_width < 1:
        raise ValueError(f"TAM width must be >= 1, got {tam_width}")
    comp = _normalize_compression(compression)
    started = _time.perf_counter()
    tables = _LookupTables(
        soc,
        comp,
        mode=mode,
        samples=samples,
        grid=grid,
        max_tam_width=tam_width,
        jobs=jobs,
        cache=resolve_cache(cache_dir, use_cache),
    )
    names = list(soc.core_names)
    search = search_partitions(
        names,
        tam_width,
        tables.time_of,
        max_parts=max_tams,
        min_width=min_tam_width,
        strategy=strategy,
    )
    placement = (
        DecompressorPlacement.NONE
        if comp == "none"
        else DecompressorPlacement.PER_CORE
    )
    architecture = build_architecture(
        soc.name,
        names,
        search.outcome,
        tables.config_of,
        placement=placement,
        ate_channels=tam_width,
    )
    elapsed = _time.perf_counter() - started
    return OptimizeResult(
        soc_name=soc.name,
        width_budget=tam_width,
        compression=comp,
        architecture=architecture,
        cpu_seconds=elapsed,
        partitions_evaluated=search.partitions_evaluated,
        strategy=search.strategy,
    )


# ---------------------------------------------------------------------------
# Constrained planning (extension): power budget and precedence.
# ---------------------------------------------------------------------------


def optimize_soc_constrained(
    soc: Soc,
    tam_width: int,
    *,
    compression: bool | str = True,
    power_budget: float | None = None,
    power_of: dict[str, float] | None = None,
    precedence: tuple[tuple[str, str], ...] = (),
    mode: Mode = "auto",
    samples: int = DEFAULT_SAMPLES,
    grid: int = DEFAULT_GRID,
    max_tams: int | None = None,
    min_tam_width: int = 1,
    jobs: int | None = None,
    cache_dir: str | None = None,
    use_cache: bool | None = None,
) -> "ConstrainedResult":
    """Co-optimization under a power budget and/or precedence constraints.

    Like :func:`optimize_soc` but schedules with
    :func:`repro.core.timeline.schedule_constrained`, which may insert
    TAM idle time to respect the constraints.  When ``power_budget`` is
    given and ``power_of`` is not, per-core flat power comes from
    :func:`repro.power.model.power_table` (majority fill when
    compressing, random fill otherwise).
    """
    from repro.core.partition import iter_partitions
    from repro.core.timeline import (
        ConstrainedSchedule,
        constrained_architecture,
        schedule_constrained,
    )

    if tam_width < 1:
        raise ValueError(f"TAM width must be >= 1, got {tam_width}")
    comp = _normalize_compression(compression)
    started = _time.perf_counter()
    tables = _LookupTables(
        soc,
        comp,
        mode=mode,
        samples=samples,
        grid=grid,
        max_tam_width=tam_width,
        jobs=jobs,
        cache=resolve_cache(cache_dir, use_cache),
    )
    names = list(soc.core_names)
    if power_budget is not None and power_of is None:
        from repro.power.model import power_table

        power_of = power_table(soc, compression=comp != "none")

    if max_tams is None:
        max_tams = min(len(names), 6)
    max_tams = min(max_tams, tam_width // min_tam_width)
    if max_tams < 1:
        raise ValueError(
            f"width {tam_width} cannot host a TAM of min width {min_tam_width}"
        )

    best: ConstrainedSchedule | None = None
    evaluated = 0
    for widths in iter_partitions(tam_width, max_tams, min_tam_width):
        schedule = schedule_constrained(
            names,
            widths,
            tables.time_of,
            power_of=power_of,
            power_budget=power_budget,
            precedence=precedence,
        )
        evaluated += 1
        if best is None or schedule.makespan < best.makespan:
            best = schedule
    assert best is not None

    placement = (
        DecompressorPlacement.NONE
        if comp == "none"
        else DecompressorPlacement.PER_CORE
    )
    architecture = constrained_architecture(
        soc.name,
        best,
        tables.config_of,
        placement=placement,
        ate_channels=tam_width,
    )
    elapsed = _time.perf_counter() - started
    return ConstrainedResult(
        soc_name=soc.name,
        width_budget=tam_width,
        compression=comp,
        architecture=architecture,
        cpu_seconds=elapsed,
        partitions_evaluated=evaluated,
        strategy="exhaustive",
        peak_power=best.peak_power,
        power_budget=power_budget,
        tam_idle_cycles=best.tam_idle_cycles,
    )


@dataclass(frozen=True)
class ConstrainedResult(OptimizeResult):
    """An :class:`OptimizeResult` plus the constraint bookkeeping."""

    peak_power: float = 0.0
    power_budget: float | None = None
    tam_idle_cycles: int = 0


# ---------------------------------------------------------------------------
# Figure 4(b): one decompressor per TAM.
# ---------------------------------------------------------------------------


def _shared_m_time(analysis: CoreAnalysis, shared_m: int) -> int:
    """Core test time when its TAM's decompressor outputs ``shared_m`` bits.

    The core can only use as many wrapper chains as it has scanned
    elements; surplus decompressor outputs idle.
    """
    m = min(shared_m, analysis.core.max_useful_wrapper_chains)
    return analysis.compressed_point(m).test_time


def _shared_m_config(analysis: CoreAnalysis, shared_m: int) -> CoreConfig:
    m = min(shared_m, analysis.core.max_useful_wrapper_chains)
    point = analysis.compressed_point(m)
    return CoreConfig(
        core_name=analysis.core.name,
        uses_compression=True,
        wrapper_chains=point.m,
        code_width=point.code_width,
        test_time=point.test_time,
        volume=point.volume,
    )


def optimize_per_tam(
    soc: Soc,
    ate_channels: int,
    *,
    mode: Mode = "auto",
    samples: int = DEFAULT_SAMPLES,
    grid: int = DEFAULT_GRID,
    max_tams: int | None = None,
    min_code_width: int = 3,
    jobs: int | None = None,
    cache_dir: str | None = None,
    use_cache: bool | None = None,
) -> OptimizeResult:
    """Figure 4(b): decompressor per TAM, shared expanded width per TAM.

    The ATE channel budget is partitioned into per-TAM code widths
    ``w_j >= 3``; each TAM's decompressor expands to a single shared
    width ``M_j`` chosen from the best-``m`` candidates of the cores
    assigned to that TAM.  The reported TAM widths are the *expanded*
    on-chip widths -- the wide, costly buses the paper's Figure 4(b)
    points at.
    """
    if ate_channels < min_code_width:
        raise ValueError(
            f"ATE channels ({ate_channels}) below minimum code width "
            f"({min_code_width})"
        )
    started = _time.perf_counter()
    analyses = analyze_soc_cores(
        soc.cores,
        mode=mode,
        samples=samples,
        grid=grid,
        max_tam_width=ate_channels,
        jobs=jobs,
        cache=resolve_cache(cache_dir, use_cache),
    )
    names = list(soc.core_names)
    if max_tams is None:
        max_tams = min(len(names), 6)
    max_tams = min(max_tams, ate_channels // min_code_width)

    def code_width_time(name: str, w: int) -> int:
        analysis = analyses[name]
        best = analysis.best_for_code_width(w) or analysis.best_compressed_for_tam(w)
        if best is None:
            return analysis.uncompressed_point(w).test_time
        return best.test_time

    best_arch: tuple[int, tuple[int, ...], list[int], list[int]] | None = None
    evaluated = 0
    for widths in iter_partitions(ate_channels, max_tams, min_code_width):
        evaluated += 1
        outcome = schedule_cores(names, widths, code_width_time)
        # Fix a shared expanded width per TAM from the assigned cores'
        # favorite m values, then re-cost every core at that width.
        shared_ms: list[int] = []
        loads: list[int] = []
        for tam, w in enumerate(widths):
            members = [
                names[i] for i, t in enumerate(outcome.assignment) if t == tam
            ]
            if not members:
                shared_ms.append(1)
                loads.append(0)
                continue
            candidates = set()
            for name in members:
                best = analyses[name].best_for_code_width(w)
                if best is not None:
                    candidates.add(best.m)
            if not candidates:
                candidates = {
                    min(
                        analyses[name].core.max_useful_wrapper_chains
                        for name in members
                    )
                }
            best_m, best_load = None, None
            for m in sorted(candidates):
                load = sum(_shared_m_time(analyses[name], m) for name in members)
                if best_load is None or load < best_load:
                    best_m, best_load = m, load
            assert best_m is not None and best_load is not None
            shared_ms.append(best_m)
            loads.append(best_load)
        makespan = max(loads) if loads else 0
        if best_arch is None or makespan < best_arch[0]:
            best_arch = (makespan, widths, shared_ms, list(outcome.assignment))

    assert best_arch is not None
    _, widths, shared_ms, assignment = best_arch

    from repro.core.architecture import ScheduledCore, Tam

    tams = tuple(
        Tam(index=i, width=max(1, shared_ms[i])) for i in range(len(widths))
    )
    loads = [0] * len(widths)
    order = sorted(
        range(len(names)),
        key=lambda i: (
            -_shared_m_time(analyses[names[i]], shared_ms[assignment[i]]),
            names[i],
        ),
    )
    scheduled = []
    for index in order:
        name = names[index]
        tam = assignment[index]
        config = _shared_m_config(analyses[name], shared_ms[tam])
        start = loads[tam]
        end = start + config.test_time
        loads[tam] = end
        scheduled.append(
            ScheduledCore(config=config, tam_index=tam, start=start, end=end)
        )
    architecture = TestArchitecture(
        soc_name=soc.name,
        placement=DecompressorPlacement.PER_TAM,
        tams=tams,
        scheduled=tuple(scheduled),
        ate_channels=ate_channels,
    )
    elapsed = _time.perf_counter() - started
    return OptimizeResult(
        soc_name=soc.name,
        width_budget=ate_channels,
        compression="per-tam",
        architecture=architecture,
        cpu_seconds=elapsed,
        partitions_evaluated=evaluated,
        strategy="exhaustive",
    )
