"""The paper's co-optimization flow (section 3) -- pipeline-backed.

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

The flow itself now lives in :mod:`repro.pipeline` as typed stages
(:class:`~repro.pipeline.stages.WrapperStage`,
:class:`~repro.pipeline.stages.DecompressorStage`, pluggable
architecture and schedule stages); the functions here are thin,
signature-stable wrappers kept as the historical entry points.  They
are differentially tested to produce plans bit-identical to the
pre-pipeline implementations.

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

from typing import Iterable, Mapping

from repro.compression.estimator import DEFAULT_SAMPLES
from repro.explore.dse import DEFAULT_GRID, Mode
from repro.pipeline.config import Compression, RunConfig, normalize_compression
from repro.pipeline.events import EventSink
from repro.pipeline.pipeline import Pipeline
from repro.pipeline.result import PlanResult
from repro.soc.soc import Soc


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
    search_opts: "Mapping[str, object] | tuple[tuple[str, str], ...]" = (),
    jobs: int | None = None,
    cache_dir: str | None = None,
    use_cache: bool | None = None,
    events: EventSink | Iterable[EventSink] | None = None,
) -> PlanResult:
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
    search_opts:
        Backend hyperparameter overrides (e.g. ``{"iterations": 8000,
        "seed": 7}`` for the anneal strategy), validated against the
        chosen :mod:`repro.search` backend's declared knobs.
    jobs:
        Worker processes for the per-core analyses (default serial; see
        :func:`repro.parallel.resolve_jobs` for the env override).
    cache_dir, use_cache:
        Persistent analysis-cache controls (see
        :func:`repro.explore.cache.resolve_cache`).  The optimizer's
        result is bit-identical with or without the cache; only the
        wall-clock changes.
    events:
        Optional :class:`~repro.pipeline.events.RunEvent` sink(s)
        receiving the structured run stream.
    """
    if tam_width < 1:
        raise ValueError(f"TAM width must be >= 1, got {tam_width}")
    config = RunConfig(
        compression=normalize_compression(compression),
        mode=mode,
        samples=samples,
        grid=grid,
        max_tams=max_tams,
        min_tam_width=min_tam_width,
        strategy=strategy,
        search_opts=tuple(
            sorted((str(k), str(v)) for k, v in dict(search_opts).items())
        ),
        jobs=jobs,
        cache_dir=cache_dir,
        use_cache=use_cache,
    )
    return Pipeline.standard().run(soc, tam_width, config, events=events)


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
    events: EventSink | Iterable[EventSink] | None = None,
) -> PlanResult:
    """Co-optimization under a power budget and/or precedence constraints.

    Like :func:`optimize_soc` but schedules with
    :func:`repro.core.timeline.schedule_constrained`, which may insert
    TAM idle time to respect the constraints.  When ``power_budget`` is
    given and ``power_of`` is not, per-core flat power comes from
    :func:`repro.power.model.power_table` (majority fill when
    compressing, random fill otherwise).

    Always uses the constrained pipeline, even with no constraints set
    (the exhaustive partition scan is part of this entry point's
    contract).
    """
    if tam_width < 1:
        raise ValueError(f"TAM width must be >= 1, got {tam_width}")
    config = RunConfig(
        compression=normalize_compression(compression),
        mode=mode,
        samples=samples,
        grid=grid,
        max_tams=max_tams,
        min_tam_width=min_tam_width,
        power_budget=power_budget,
        power_of=power_of,
        precedence=tuple(precedence),
        jobs=jobs,
        cache_dir=cache_dir,
        use_cache=use_cache,
    )
    return Pipeline.constrained().run(soc, tam_width, config, events=events)


# ---------------------------------------------------------------------------
# Figure 4(b): one decompressor per TAM.
# ---------------------------------------------------------------------------


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
    events: EventSink | Iterable[EventSink] | None = None,
) -> PlanResult:
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
    config = RunConfig(
        compression="per-tam",
        mode=mode,
        samples=samples,
        grid=grid,
        max_tams=max_tams,
        min_code_width=min_code_width,
        jobs=jobs,
        cache_dir=cache_dir,
        use_cache=use_cache,
    )
    return Pipeline.per_tam().run(soc, ate_channels, config, events=events)
