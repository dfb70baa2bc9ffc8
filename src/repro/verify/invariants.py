"""Independent invariant checking for every plan shape the repo produces.

The planners (:mod:`repro.core.scheduler`, :mod:`repro.core.partition`,
:mod:`repro.core.timeline`) and the three delivery paths (direct,
pipeline, ``repro.serve``) all promise the same contract: a plan's
per-core test times come from the paper's wrapper and decompressor
models, cores sharing a TAM never overlap, the TAM widths fit the ATE
channel budget, power stays under the budget, precedence holds, and
the headline numbers (makespan, peak power, volume) equal what the
schedule actually implies.

This module re-derives each of those facts from first principles --
:func:`repro.wrapper.timing.scan_test_time` for uncompressed cores, the
selective-code points of :class:`repro.explore.dse.CoreAnalysis` and the
dictionary model of :mod:`repro.compression.dictionary` for compressed
ones, a sweep over interval endpoints for overlap and power -- and never
trusts a stored field it can recompute.  In particular the constructors'
own validation (``TestArchitecture.__post_init__``'s overlap check,
``ScheduledCore``'s slot-length check) is deliberately repeated here:
a corrupted object produced by bypassing the constructor must still be
caught.

Checks that need information the caller did not provide (an SOC for the
time models, a power map for the power sweep) are skipped, not failed;
the report's ``checks`` tuple records exactly what ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence, TYPE_CHECKING

from repro.core.architecture import DecompressorPlacement, TestArchitecture
from repro.core.timeline import ConstrainedSchedule, Segment
from repro.soc.soc import Soc

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.explore.dse import CoreAnalysis
    from repro.pack.packer import PackedPlan
    from repro.pipeline.config import RunConfig
    from repro.pipeline.result import PlanResult

#: ``PlanResult.strategy`` prefix marking a rectangle-packed plan;
#: survives JSON export, so re-imported plans verify correctly too.
PACKED_STRATEGY_PREFIX = "packing"

#: Signature shared with the schedulers: (core name, tam width) -> cycles.
TimeFn = Callable[[str, int], int]

#: Absolute tolerance for floating-point power comparisons.
POWER_EPS = 1e-6


# ---------------------------------------------------------------------------
# Report data model.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """One broken invariant, locatable to a core and/or TAM."""

    code: str
    message: str
    core: str | None = None
    tam: int | None = None

    def format(self) -> str:
        where = []
        if self.core is not None:
            where.append(f"core={self.core}")
        if self.tam is not None:
            where.append(f"tam={self.tam}")
        suffix = f" ({', '.join(where)})" if where else ""
        return f"[{self.code}] {self.message}{suffix}"


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verification run: which checks ran, what broke."""

    subject: str
    checks: tuple[str, ...] = ()
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return f"{self.subject}: ok ({len(self.checks)} checks)"
        lines = [
            f"{self.subject}: {len(self.violations)} violation(s) "
            f"in {len(self.checks)} checks"
        ]
        lines.extend("  " + v.format() for v in self.violations)
        return "\n".join(lines)

    def raise_if_violations(self) -> "VerificationReport":
        """Return self when clean; raise :class:`PlanVerificationError` else."""
        if not self.ok:
            raise PlanVerificationError(self)
        return self


class PlanVerificationError(ValueError):
    """A plan failed independent verification (carries the report)."""

    def __init__(self, report: VerificationReport) -> None:
        super().__init__(report.summary())
        self.report = report


@dataclass
class _Collector:
    """Accumulates the checks run and the violations found."""

    checks: list[str] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)

    def ran(self, name: str) -> None:
        if name not in self.checks:
            self.checks.append(name)

    def fail(
        self,
        code: str,
        message: str,
        *,
        core: str | None = None,
        tam: int | None = None,
    ) -> None:
        self.ran(code)
        self.violations.append(Violation(code, message, core=core, tam=tam))

    def report(self, subject: str) -> VerificationReport:
        return VerificationReport(
            subject, tuple(self.checks), tuple(self.violations)
        )


# ---------------------------------------------------------------------------
# Shared interval helpers (overlap / power / precedence / makespan).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Slot:
    """Normalized view of one scheduled interval, any plan shape."""

    name: str
    tam: int
    start: int
    end: int


def _check_tam_overlap(out: _Collector, slots: Sequence[_Slot]) -> None:
    """Same-TAM tests must not overlap (independent sweep, not trusted)."""
    out.ran("tam-overlap")
    by_tam: dict[int, list[_Slot]] = {}
    for slot in slots:
        by_tam.setdefault(slot.tam, []).append(slot)
    for tam, items in sorted(by_tam.items()):
        items.sort(key=lambda s: (s.start, s.end))
        for a, b in zip(items, items[1:]):
            if b.start < a.end:
                out.fail(
                    "tam-overlap",
                    f"{a.name} [{a.start}, {a.end}) overlaps "
                    f"{b.name} [{b.start}, {b.end})",
                    core=b.name,
                    tam=tam,
                )


def _peak_power(
    slots: Iterable[_Slot], power_of: Mapping[str, float]
) -> float:
    """Sweep-line peak of the flat per-core power profile."""
    spans = [
        (s.start, s.end, float(power_of.get(s.name, 0.0)))
        for s in slots
        if s.end > s.start
    ]
    peak = 0.0
    for t, _, _ in spans:
        level = sum(p for s, e, p in spans if s <= t < e)
        peak = max(peak, level)
    return peak


def _instant_peak_width(
    slots: Iterable[_Slot], widths: Mapping[int, int]
) -> int:
    """Sweep-line peak of the instantaneous occupied TAM width.

    Flexible-width (packed) plans time-share the ATE interface: the sum
    of TAM widths may legitimately exceed the channel budget as long as
    the widths *active at any one instant* fit.  The peak over all slot
    starts is the exact maximum (the active set only changes there).
    """
    spans = [
        (s.start, s.end, int(widths.get(s.tam, 0)))
        for s in slots
        if s.end > s.start
    ]
    peak = 0
    for t, _, _ in spans:
        level = sum(w for s, e, w in spans if s <= t < e)
        peak = max(peak, level)
    return peak


def _check_power(
    out: _Collector,
    slots: Sequence[_Slot],
    power_of: Mapping[str, float],
    power_budget: float | None,
    stated_peak: float | None,
) -> None:
    peak = _peak_power(slots, power_of)
    if power_budget is not None:
        out.ran("power-budget")
        if peak > power_budget + POWER_EPS:
            out.fail(
                "power-budget",
                f"recomputed peak power {peak:.6g} exceeds budget "
                f"{power_budget:.6g}",
            )
    if stated_peak is not None:
        out.ran("peak-power")
        if abs(peak - stated_peak) > POWER_EPS:
            out.fail(
                "peak-power",
                f"stated peak power {stated_peak:.6g} != recomputed "
                f"{peak:.6g}",
            )


def _check_precedence(
    out: _Collector,
    slots: Sequence[_Slot],
    precedence: Sequence[tuple[str, str]],
) -> None:
    """``before`` must fully finish before ``after`` starts.

    For preemptive schedules a core appears as several slots; the
    relevant times are its last end and its first start.
    """
    if not precedence:
        return
    out.ran("precedence")
    finish: dict[str, int] = {}
    start: dict[str, int] = {}
    for slot in slots:
        finish[slot.name] = max(finish.get(slot.name, slot.end), slot.end)
        start[slot.name] = min(start.get(slot.name, slot.start), slot.start)
    for before, after in precedence:
        if before not in finish or after not in start:
            out.fail(
                "precedence",
                f"constraint ({before!r}, {after!r}) names an unscheduled core",
                core=before if before not in finish else after,
            )
            continue
        if finish[before] > start[after]:
            out.fail(
                "precedence",
                f"{after} starts at {start[after]} before {before} "
                f"finishes at {finish[before]}",
                core=after,
            )


def _check_membership(
    out: _Collector, scheduled_names: Sequence[str], expected: Sequence[str]
) -> None:
    out.ran("core-membership")
    seen: set[str] = set()
    for name in scheduled_names:
        if name in seen:
            out.fail(
                "core-membership", "core scheduled more than once", core=name
            )
        seen.add(name)
    missing = sorted(set(expected) - seen)
    extra = sorted(seen - set(expected))
    if missing:
        out.fail("core-membership", f"cores never scheduled: {missing}")
    if extra:
        out.fail("core-membership", f"unknown cores scheduled: {extra}")


# ---------------------------------------------------------------------------
# Per-core model recomputation (the paper's time/volume models).
# ---------------------------------------------------------------------------


def _uncompressed_expectation(analysis: "CoreAnalysis", chains: int):
    """(time, volume) of a plain wrapper with ``chains`` wrapper chains."""
    from repro.wrapper.design import design_wrapper
    from repro.wrapper.timing import scan_test_time, uncompressed_tam_volume

    core = analysis.core
    design = design_wrapper(core, chains)
    time = scan_test_time(core.patterns, design.scan_in_max, design.scan_out_max)
    return time, uncompressed_tam_volume(core, design)


def _dictionary_expectations(
    analysis: "CoreAnalysis", chains: int, code_width: int
) -> list[tuple[int, int]]:
    """All (time, volume) pairs a dictionary decompressor could yield.

    Mirrors :class:`repro.explore.selection.TechniqueSelector` but rebuilt
    from the raw cube set, one candidate per configured index width.
    """
    from repro.compression.dictionary import (
        build_dictionary,
        compression_stats,
        delivery_cycles,
    )
    from repro.explore.selection import DEFAULT_INDEX_BITS
    from repro.wrapper.design import design_wrapper

    if analysis.mode != "exact" or analysis.cubes is None:
        return []
    core = analysis.core
    design = design_wrapper(core, chains)
    slices = analysis.cubes.slices(design).reshape(-1, chains)
    expectations: list[tuple[int, int]] = []
    for index_bits in DEFAULT_INDEX_BITS:
        if 2**index_bits > slices.shape[0]:
            continue
        dictionary = build_dictionary(slices, index_bits)
        stats = compression_stats(slices, dictionary)
        time = (
            delivery_cycles(stats, code_width)
            + core.patterns
            + min(design.scan_in_max, design.scan_out_max)
        )
        expectations.append((time, stats.compressed_bits))
    return expectations


def _check_core_models(
    out: _Collector,
    architecture: TestArchitecture,
    analyses: Mapping[str, "CoreAnalysis"],
) -> None:
    """Per-core test time and volume must match the technique's model."""
    out.ran("time-model")
    out.ran("volume-model")
    widths = {t.index: t.width for t in architecture.tams}
    recomputed_total = 0
    for item in architecture.scheduled:
        cfg = item.config
        analysis = analyses.get(cfg.core_name)
        if analysis is None:
            out.fail(
                "time-model",
                "no analysis available for scheduled core",
                core=cfg.core_name,
            )
            continue
        if cfg.technique == "none":
            # The planners account an uncompressed core at the full TAM
            # width (padded chains stream idle bits), while the stored
            # chain count is clamped to the core's useful maximum --
            # accept the model at either width.
            counts = {cfg.wrapper_chains}
            tam_width = widths.get(item.tam_index)
            if tam_width is not None and tam_width >= 1:
                counts.add(tam_width)
            expected = [
                _uncompressed_expectation(analysis, m) for m in sorted(counts)
            ]
        elif cfg.technique == "selective":
            point = analysis.compressed_point(cfg.wrapper_chains)
            if cfg.code_width != point.code_width:
                out.fail(
                    "code-width",
                    f"stored code width {cfg.code_width} != "
                    f"{point.code_width} implied by m={cfg.wrapper_chains}",
                    core=cfg.core_name,
                )
            expected = [(point.test_time, point.volume)]
        elif cfg.technique == "dictionary":
            expected = _dictionary_expectations(
                analysis, cfg.wrapper_chains, cfg.code_width or 0
            )
            if not expected:
                out.fail(
                    "time-model",
                    "dictionary technique but no dictionary is buildable "
                    "(estimate-mode analysis or degenerate cube set)",
                    core=cfg.core_name,
                )
                continue
        else:  # pragma: no cover - constructor rejects unknown techniques
            out.fail(
                "time-model",
                f"unknown technique {cfg.technique!r}",
                core=cfg.core_name,
            )
            continue
        if cfg.test_time not in {t for t, _ in expected}:
            want = sorted({t for t, _ in expected})
            out.fail(
                "time-model",
                f"stored test time {cfg.test_time} != model time "
                f"{want[0] if len(want) == 1 else want} "
                f"({cfg.technique}, m={cfg.wrapper_chains})",
                core=cfg.core_name,
            )
        matching = [v for t, v in expected if t == cfg.test_time]
        volumes = matching or [v for _, v in expected]
        if cfg.volume not in volumes:
            out.fail(
                "volume-model",
                f"stored volume {cfg.volume} != model volume "
                f"{volumes[0] if len(volumes) == 1 else sorted(set(volumes))} "
                f"({cfg.technique}, m={cfg.wrapper_chains})",
                core=cfg.core_name,
            )
        recomputed_total += cfg.volume
    out.ran("volume-conservation")
    if architecture.test_data_volume != sum(
        s.config.volume for s in architecture.scheduled
    ):  # pragma: no cover - property is derived; guards future caching
        out.fail(
            "volume-conservation",
            "architecture volume differs from the sum of its parts",
        )


def _check_width_fit(
    out: _Collector,
    architecture: TestArchitecture,
    analyses: "Mapping[str, CoreAnalysis] | None",
) -> None:
    """Wrapper/code widths must fit the TAM each core sits on."""
    out.ran("wrapper-fit")
    out.ran("placement-consistency")
    widths = {t.index: t.width for t in architecture.tams}
    placement = architecture.placement
    for item in architecture.scheduled:
        cfg = item.config
        width = widths.get(item.tam_index)
        if width is None:
            continue  # reported by the tam-index check
        if cfg.wrapper_chains < 1:
            out.fail(
                "wrapper-fit",
                f"wrapper chain count {cfg.wrapper_chains} < 1",
                core=cfg.core_name,
                tam=item.tam_index,
            )
            continue
        if placement is DecompressorPlacement.NONE and cfg.uses_compression:
            out.fail(
                "placement-consistency",
                "compressed core under placement 'none'",
                core=cfg.core_name,
                tam=item.tam_index,
            )
        if cfg.uses_compression and placement is not DecompressorPlacement.NONE:
            # The TAM carries code bits; the decompressor fans them out to
            # the wrapper chains.  Under per-TAM placement the stored TAM
            # width is the *expanded* bus, so the wrapper chains must fit.
            if placement is DecompressorPlacement.PER_TAM:
                if cfg.wrapper_chains > width:
                    out.fail(
                        "wrapper-fit",
                        f"{cfg.wrapper_chains} wrapper chains exceed the "
                        f"{width}-bit expanded TAM",
                        core=cfg.core_name,
                        tam=item.tam_index,
                    )
            elif cfg.code_width is not None and cfg.code_width > width:
                out.fail(
                    "wrapper-fit",
                    f"code width {cfg.code_width} exceeds TAM width {width}",
                    core=cfg.core_name,
                    tam=item.tam_index,
                )
        elif not cfg.uses_compression and cfg.wrapper_chains > width:
            out.fail(
                "wrapper-fit",
                f"{cfg.wrapper_chains} wrapper chains exceed TAM width "
                f"{width}",
                core=cfg.core_name,
                tam=item.tam_index,
            )
        if not cfg.uses_compression and analyses is not None:
            analysis = analyses.get(cfg.core_name)
            if (
                analysis is not None
                and cfg.wrapper_chains
                > analysis.core.max_useful_wrapper_chains
            ):
                out.fail(
                    "wrapper-fit",
                    f"{cfg.wrapper_chains} wrapper chains exceed the core's "
                    f"useful maximum "
                    f"{analysis.core.max_useful_wrapper_chains}",
                    core=cfg.core_name,
                    tam=item.tam_index,
                )


# ---------------------------------------------------------------------------
# Public entry points.
# ---------------------------------------------------------------------------


def _resolve_analyses(
    soc: Soc | None,
    config: "RunConfig | None",
    analyses: Mapping[str, "CoreAnalysis"] | None,
) -> Mapping[str, "CoreAnalysis"] | None:
    if analyses is not None or soc is None:
        return analyses
    from repro.explore.dse import analysis_for
    from repro.pipeline.config import RunConfig

    cfg = config or RunConfig()
    return {
        core.name: analysis_for(
            core, mode=cfg.mode, samples=cfg.samples, grid=cfg.grid
        )
        for core in soc
    }


def _verify_architecture_into(
    out: _Collector,
    architecture: TestArchitecture,
    *,
    soc: Soc | None,
    config: "RunConfig | None",
    analyses: Mapping[str, "CoreAnalysis"] | None,
    power_of: Mapping[str, float] | None,
    power_budget: float | None,
    stated_peak: float | None,
    precedence: Sequence[tuple[str, str]],
    packed: bool = False,
) -> None:
    out.ran("tam-index")
    indices = [t.index for t in architecture.tams]
    if len(set(indices)) != len(indices):
        out.fail("tam-index", f"duplicate TAM indices: {sorted(indices)}")
    known = set(indices)
    out.ran("slot-bounds")
    slots: list[_Slot] = []
    for item in architecture.scheduled:
        name = item.config.core_name
        if item.tam_index not in known:
            out.fail(
                "tam-index",
                f"scheduled on unknown TAM {item.tam_index}",
                core=name,
            )
        if item.start < 0:
            out.fail(
                "slot-bounds", f"negative start {item.start}", core=name
            )
        if item.end - item.start != item.config.test_time:
            out.fail(
                "slot-bounds",
                f"slot [{item.start}, {item.end}) has length "
                f"{item.end - item.start} != test time "
                f"{item.config.test_time}",
                core=name,
            )
        slots.append(_Slot(name, item.tam_index, item.start, item.end))
    _check_tam_overlap(out, slots)

    out.ran("width-budget")
    if packed:
        # Packed plans time-share the ATE wires: one single-core TAM per
        # rectangle, so the width *sum* may exceed the budget while the
        # instantaneous occupied width never may.
        widths = {t.index: t.width for t in architecture.tams}
        peak_width = _instant_peak_width(slots, widths)
        if peak_width > architecture.ate_channels:
            out.fail(
                "width-budget",
                f"instantaneous occupied width {peak_width} > "
                f"{architecture.ate_channels} ATE channels",
            )
    elif architecture.placement is not DecompressorPlacement.PER_TAM:
        # Per-TAM stores post-expansion widths, which legitimately exceed
        # the ATE channel budget; all other placements pay wire-for-wire.
        total = architecture.total_tam_width
        if total > architecture.ate_channels:
            out.fail(
                "width-budget",
                f"TAM widths sum to {total} > {architecture.ate_channels} "
                f"ATE channels",
            )

    resolved = _resolve_analyses(soc, config, analyses)
    if soc is not None:
        _check_membership(
            out, [s.config.core_name for s in architecture.scheduled],
            soc.core_names,
        )
    if resolved is not None:
        _check_width_fit(out, architecture, resolved)
        _check_core_models(out, architecture, resolved)
    else:
        _check_width_fit(out, architecture, None)

    if power_of is not None:
        _check_power(out, slots, power_of, power_budget, stated_peak)
    _check_precedence(out, slots, precedence)


def verify_architecture(
    architecture: TestArchitecture,
    *,
    soc: Soc | None = None,
    config: "RunConfig | None" = None,
    analyses: Mapping[str, "CoreAnalysis"] | None = None,
    power_of: Mapping[str, float] | None = None,
    power_budget: float | None = None,
    stated_peak: float | None = None,
    precedence: Sequence[tuple[str, str]] = (),
    packed: bool = False,
) -> VerificationReport:
    """Independently re-check a :class:`TestArchitecture`.

    Structural invariants (TAM indices, slot bounds, same-TAM overlap,
    width budget) always run.  Model invariants (per-core time/volume,
    wrapper fit against the core) additionally need ``soc`` (and use
    ``config``'s analysis knobs, or explicit ``analyses``).  Power checks
    need ``power_of``; precedence checks need ``precedence``.

    ``packed`` marks a flexible-width (rectangle-packed) plan: the
    width-budget check then bounds the *instantaneous* occupied width by
    a sweep instead of the width sum (see :func:`verify_packed` for the
    full 2D geometry check, which needs the original
    :class:`~repro.pack.packer.PackedPlan`).
    """
    out = _Collector()
    _verify_architecture_into(
        out,
        architecture,
        soc=soc,
        config=config,
        analyses=analyses,
        power_of=power_of,
        power_budget=power_budget,
        stated_peak=stated_peak,
        precedence=tuple(precedence),
        packed=packed,
    )
    return out.report(f"architecture:{architecture.soc_name}")


def verify_plan(
    result: "PlanResult",
    soc: Soc | None = None,
    *,
    config: "RunConfig | None" = None,
    analyses: Mapping[str, "CoreAnalysis"] | None = None,
    power_of: Mapping[str, float] | None = None,
    precedence: Sequence[tuple[str, str]] | None = None,
) -> VerificationReport:
    """Verify a :class:`PlanResult` from any delivery path.

    Beyond :func:`verify_architecture` this checks the result's own
    bookkeeping: the recorded width budget matches the architecture, and
    -- for constrained runs -- the recorded peak power matches a
    sweep-line recomputation and respects the recorded budget.  When the
    plan is power-constrained but no ``power_of`` map is given, the
    default :func:`repro.power.model.power_table` model is assumed (the
    same default the pipeline uses).

    A strategy starting with ``"packing"`` (see
    :data:`PACKED_STRATEGY_PREFIX`) switches the width-budget check to
    the packed (instantaneous-width) form, so re-imported packed plans
    verify without the original packer state.
    """
    out = _Collector()
    architecture = result.architecture

    out.ran("budget-consistency")
    if result.width_budget != architecture.ate_channels:
        out.fail(
            "budget-consistency",
            f"result records width budget {result.width_budget} but the "
            f"architecture has {architecture.ate_channels} ATE channels",
        )

    budget = result.power_budget
    if power_of is None and config is not None:
        power_of = config.power_of
    if budget is None and config is not None:
        budget = config.power_budget
    if power_of is None and budget is not None and soc is not None:
        from repro.power.model import power_table

        power_of = power_table(soc, compression=result.compression != "none")
    if precedence is None:
        precedence = config.precedence if config is not None else ()
    stated_peak = result.peak_power if power_of is not None else None

    _verify_architecture_into(
        out,
        architecture,
        soc=soc,
        config=config,
        analyses=analyses,
        power_of=power_of,
        power_budget=budget,
        stated_peak=stated_peak,
        precedence=tuple(precedence),
        packed=result.strategy.startswith(PACKED_STRATEGY_PREFIX),
    )
    return out.report(f"plan:{result.soc_name}")


def verify_packed(
    plan: "PackedPlan",
    core_names: Sequence[str],
    time_of: TimeFn,
) -> VerificationReport:
    """Re-check a :class:`~repro.pack.packer.PackedPlan`'s 2D geometry.

    Invariants, each re-derived from the raw rectangles:

    * ``rect-bounds`` -- every rectangle lies inside the
      ``width_budget``-wide strip and starts at time >= 0;
    * ``rect-overlap`` -- no two rectangles overlap in 2D (sweep over
      start times; at each instant the active rectangles, sorted by x,
      must be pairwise disjoint);
    * ``channel-budget`` -- the instantaneous occupied width never
      exceeds the budget at any instant;
    * ``width-support`` -- each core runs at a width its wrapper table
      actually supports: ``time_of(name, width)`` must equal the
      rectangle's height exactly;
    * ``core-membership`` -- every core packed exactly once;
    * ``makespan`` -- the stated makespan equals the last finish.
    """
    out = _Collector()
    out.ran("rect-bounds")
    out.ran("width-support")
    for rect in plan.rects:
        if rect.x < 0 or rect.x + rect.width > plan.width_budget:
            out.fail(
                "rect-bounds",
                f"rectangle x=[{rect.x}, {rect.x + rect.width}) falls "
                f"outside the {plan.width_budget}-wide strip",
                core=rect.name,
            )
        if rect.start < 0:
            out.fail(
                "rect-bounds",
                f"negative start {rect.start}",
                core=rect.name,
            )
        expected = time_of(rect.name, rect.width)
        if rect.end - rect.start != expected:
            out.fail(
                "width-support",
                f"rectangle height {rect.end - rect.start} != test time "
                f"{expected} at width {rect.width}",
                core=rect.name,
            )
    _check_membership(out, [rect.name for rect in plan.rects], core_names)

    out.ran("rect-overlap")
    out.ran("channel-budget")
    live = [rect for rect in plan.rects if rect.end > rect.start]
    for probe in live:
        t = probe.start
        active = sorted(
            (rect for rect in live if rect.start <= t < rect.end),
            key=lambda rect: (rect.x, rect.name),
        )
        for a, b in zip(active, active[1:]):
            if b.x < a.x + a.width:
                out.fail(
                    "rect-overlap",
                    f"{a.name} x=[{a.x}, {a.x + a.width}) overlaps "
                    f"{b.name} x=[{b.x}, {b.x + b.width}) at time {t}",
                    core=b.name,
                )
        occupied = sum(rect.width for rect in active)
        if occupied > plan.width_budget:
            out.fail(
                "channel-budget",
                f"instantaneous occupied width {occupied} > "
                f"{plan.width_budget} ATE channels at time {t}",
            )

    out.ran("makespan")
    actual = max((rect.end for rect in plan.rects), default=0)
    if plan.makespan != actual:
        out.fail(
            "makespan",
            f"stated makespan {plan.makespan} != last finish {actual}",
        )
    return out.report(f"packed:{plan.soc_name}")


def verify_constrained(
    schedule: ConstrainedSchedule,
    core_names: Sequence[str],
    time_of: TimeFn,
    *,
    power_of: Mapping[str, float] | None = None,
    power_budget: float | None = None,
    precedence: Sequence[tuple[str, str]] = (),
    max_segments: int | None = None,
) -> VerificationReport:
    """Re-check a :class:`ConstrainedSchedule` against its inputs.

    A core's test is one or more segments on one TAM: a non-preemptive
    schedule is the one-segment case, and ``max_segments`` caps the
    pieces of a preemptive one.
    """
    out = _Collector()
    out.ran("tam-index")
    out.ran("slot-bounds")
    out.ran("segment-order")
    out.ran("segment-sum")
    if max_segments is not None:
        out.ran("segment-count")
    slots: list[_Slot] = []
    by_core: dict[str, list[Segment]] = {}
    for seg in schedule.segments:
        if not 0 <= seg.tam < len(schedule.widths):
            out.fail("tam-index", f"unknown TAM {seg.tam}", core=seg.name)
            continue
        if seg.start < 0:
            out.fail("slot-bounds", f"negative start {seg.start}", core=seg.name)
        by_core.setdefault(seg.name, []).append(seg)
        slots.append(_Slot(seg.name, seg.tam, seg.start, seg.end))
    _check_membership(out, sorted(by_core), core_names)
    for name, segments in sorted(by_core.items()):
        tams = {seg.tam for seg in segments}
        if len(tams) > 1:
            out.fail(
                "segment-order",
                f"segments span several TAMs: {sorted(tams)}",
                core=name,
            )
            continue
        tam = segments[0].tam
        segments.sort(key=lambda seg: seg.start)
        for position, seg in enumerate(segments):
            if seg.index != position:
                out.fail(
                    "segment-order",
                    f"segment at start {seg.start} has index {seg.index}, "
                    f"expected {position}",
                    core=name,
                )
            if seg.end - seg.start < 1:
                out.fail(
                    "segment-order",
                    f"empty segment [{seg.start}, {seg.end})",
                    core=name,
                )
        for a, b in zip(segments, segments[1:]):
            if b.start < a.end:
                out.fail(
                    "segment-order",
                    f"segments [{a.start}, {a.end}) and "
                    f"[{b.start}, {b.end}) overlap",
                    core=name,
                )
        total = sum(seg.end - seg.start for seg in segments)
        expected = time_of(name, schedule.widths[tam])
        if total != expected:
            out.fail(
                "segment-sum",
                f"segment durations sum to {total} != test time {expected} "
                f"on a {schedule.widths[tam]}-bit TAM",
                core=name,
                tam=tam,
            )
        if max_segments is not None and len(segments) > max_segments:
            out.fail(
                "segment-count",
                f"{len(segments)} segments exceed max_segments="
                f"{max_segments}",
                core=name,
            )
    _check_tam_overlap(out, slots)
    out.ran("makespan")
    actual = max((seg.end for seg in schedule.segments), default=0)
    if schedule.makespan != actual:
        out.fail(
            "makespan",
            f"stated makespan {schedule.makespan} != last finish {actual}",
        )
    _check_power(
        out,
        slots,
        power_of or {},
        power_budget,
        schedule.peak_power if power_of is not None else None,
    )
    _check_precedence(out, slots, precedence)
    return out.report("constrained-schedule")
