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

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping, Sequence, TYPE_CHECKING

from repro.compression.selective import code_parameters
from repro.core.architecture import DecompressorPlacement, TestArchitecture
from repro.core.timeline import ConstrainedSchedule, Segment
from repro.soc.soc import Soc

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.explore.dse import CoreAnalysis
    from repro.pack.packer import PackedPlan
    from repro.pipeline.config import RunConfig
    from repro.pipeline.result import PlanResult

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
    """Normalized view of one scheduled interval, any plan shape.

    ``x`` and ``width`` place it on the ATE wires ``[x, x + width)``
    where the plan time-shares them.
    """

    name: str
    tam: int
    start: int
    end: int
    x: int = 0
    width: int = 0


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


def _check_wires(
    out: _Collector,
    slots: Sequence[_Slot],
    channels: int,
    *,
    bounds: str,
    overlap: str,
) -> int:
    """Every slot's wires inside ``[0, channels)``; none busy twice at once.

    Returns the peak occupied width.  The busy set only changes at a
    slot's start, so probing every start is exact, and x-sorted
    neighbours suffice: any overlap makes some neighbours overlap.
    """
    out.ran(bounds)
    out.ran(overlap)
    for slot in slots:
        if slot.x < 0 or slot.x + slot.width > channels:
            out.fail(
                bounds,
                f"wires [{slot.x}, {slot.x + slot.width}) fall outside the "
                f"{channels} ATE channels",
                core=slot.name,
            )
    live = [slot for slot in slots if slot.end > slot.start]
    peak = 0
    for t in sorted({slot.start for slot in live}):
        active = sorted(
            (slot for slot in live if slot.start <= t < slot.end),
            key=lambda slot: (slot.x, slot.name),
        )
        for a, b in zip(active, active[1:]):
            if b.x < a.x + a.width:
                out.fail(
                    overlap,
                    f"{a.name} wires [{a.x}, {a.x + a.width}) and {b.name} "
                    f"wires [{b.x}, {b.x + b.width}) are both busy at time {t}",
                    core=b.name,
                )
        peak = max(peak, sum(slot.width for slot in active))
    return peak


def _check_width_budget(
    out: _Collector, architecture: TestArchitecture, slots: Sequence[_Slot]
) -> None:
    """The ATE wires the plan's geometry needs fit its channels.

    TAMs with wire offsets time-share the channels: each lies inside
    them, and no two busy at once share a wire.  A TAM without one owns
    its wires for the whole test, at a cost in channels that follows
    the decompressor placement.
    """
    out.ran("width-budget")
    channels = architecture.ate_channels
    tams = architecture.tams
    offsets = {t.index: t.offset for t in tams if t.offset is not None}
    if offsets:
        if len(offsets) < len(tams):
            out.fail(
                "width-budget",
                f"{len(offsets)} of {len(tams)} TAMs carry a wire offset; "
                "a plan places all of its TAMs on wires or none",
            )
            return
        width_of = {t.index: t.width for t in tams}
        placed = [
            replace(s, x=offsets[s.tam], width=width_of[s.tam])
            for s in slots
            if s.tam in offsets
        ]
        _check_wires(
            out, placed, channels, bounds="width-budget", overlap="wire-overlap"
        )
        return
    widths = [t.width for t in tams]
    if architecture.placement is DecompressorPlacement.PER_TAM:
        # The TAMs are expanded buses; the ATE feeds each TAM's
        # decompressor its code width.
        need = sum(code_parameters(w)[1] for w in widths)
        what = "the TAM decompressors' code widths sum to"
    elif architecture.placement is DecompressorPlacement.SOC_LEVEL:
        need = _chip_code_width(architecture)
        what = "the chip decompressor's code width is"
    else:
        need = sum(widths)
        what = "TAM widths sum to"
    if need > channels:
        out.fail("width-budget", f"{what} {need} > {channels} ATE channels")


def _chip_code_width(architecture: TestArchitecture) -> int:
    """Code width of one decompressor expanding into every TAM's wires."""
    return code_parameters(max(1, architecture.total_tam_width))[1]


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
    """Per-core test time and volume must match the technique's model.

    Behind a chip-level decompressor each core is a plain wrapper, and
    only the stream's total volume is modelled (:func:`_check_chip_stream`).
    """
    out.ran("time-model")
    out.ran("volume-model")
    widths = {t.index: t.width for t in architecture.tams}
    chip = architecture.placement is DecompressorPlacement.SOC_LEVEL
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
        if chip or cfg.technique == "none":
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
        if chip:
            continue
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
    out.ran("volume-conservation")
    if architecture.test_data_volume != sum(
        s.config.volume for s in architecture.scheduled
    ):  # pragma: no cover - property is derived; guards future caching
        out.fail(
            "volume-conservation",
            "architecture volume differs from the sum of its parts",
        )


def _check_chip_stream(out: _Collector, architecture: TestArchitecture) -> None:
    """A chip-level decompressor's one code and its ATE stream.

    Every config carries the chip's code width, and the volumes sum to
    ``ate_cycles`` codewords of that width.  No other placement feeds
    the ATE for longer than the schedule, so none has ``ate_cycles``.
    """
    out.ran("placement-consistency")
    if architecture.placement is not DecompressorPlacement.SOC_LEVEL:
        if architecture.ate_cycles:
            out.fail(
                "placement-consistency",
                f"{architecture.ate_cycles} ATE cycles stated without a "
                "chip-level decompressor",
            )
        return
    out.ran("code-width")
    out.ran("volume-model")
    code_width = _chip_code_width(architecture)
    for item in architecture.scheduled:
        if item.config.code_width != code_width:
            out.fail(
                "code-width",
                f"stored code width {item.config.code_width} != the chip "
                f"decompressor's {code_width} for "
                f"{architecture.total_tam_width} internal TAM wires",
                core=item.config.core_name,
            )
    stream = architecture.ate_cycles * code_width
    if architecture.test_data_volume != stream:
        out.fail(
            "volume-model",
            f"volumes sum to {architecture.test_data_volume} != "
            f"{architecture.ate_cycles} ATE cycles x {code_width}-bit codewords "
            f"= {stream}",
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
        # A per-core decompressor fans the TAM's code bits out to the
        # chains; any other TAM carries a bit per chain (plain scan, or
        # the bus a per-TAM or chip-level decompressor expanded).
        chip = placement is DecompressorPlacement.SOC_LEVEL
        if cfg.uses_compression and placement is DecompressorPlacement.PER_CORE:
            if cfg.code_width is not None and cfg.code_width > width:
                out.fail(
                    "wrapper-fit",
                    f"code width {cfg.code_width} exceeds TAM width {width}",
                    core=cfg.core_name,
                    tam=item.tam_index,
                )
        elif cfg.wrapper_chains > width:
            out.fail(
                "wrapper-fit",
                f"{cfg.wrapper_chains} wrapper chains exceed the {width}-bit "
                "TAM",
                core=cfg.core_name,
                tam=item.tam_index,
            )
        if (chip or not cfg.uses_compression) and analyses is not None:
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


def verify_architecture(
    architecture: TestArchitecture,
    *,
    soc: Soc | None = None,
    config: "RunConfig | None" = None,
    analyses: Mapping[str, "CoreAnalysis"] | None = None,
    width_budget: int | None = None,
    power_of: Mapping[str, float] | None = None,
    power_budget: float | None = None,
    stated_peak: float | None = None,
    precedence: Sequence[tuple[str, str]] | None = None,
) -> VerificationReport:
    """Independently re-check a :class:`TestArchitecture`.

    Structural invariants (TAM indices, slot bounds, same-TAM overlap,
    width budget, the chip-level stream) always run and read only the
    plan's own fields: the width rule follows the plan's geometry --
    wire offsets where its TAMs time-share the channels, else the
    decompressor placement -- never a strategy label.  Model invariants
    (per-core time/volume, wrapper fit against the core) additionally
    need ``soc`` (and use ``config``'s analysis knobs, or explicit
    ``analyses``).

    ``width_budget`` is the channel count the plan was asked for and
    must equal ``ate_channels``.  ``power_of``, ``power_budget`` and
    ``precedence`` default to the config's; with a budget and no map,
    the planner's default :func:`repro.power.model.power_table` applies.
    The power checks run when a map is known: the recomputed peak
    against ``power_budget`` and against ``stated_peak``.
    """
    out = _Collector()
    if width_budget is not None:
        out.ran("budget-consistency")
        if width_budget != architecture.ate_channels:
            out.fail(
                "budget-consistency",
                f"result records width budget {width_budget} but the "
                f"architecture has {architecture.ate_channels} ATE channels",
            )
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
    _check_width_budget(out, architecture, slots)
    _check_chip_stream(out, architecture)

    resolved = _resolve_analyses(soc, config, analyses)
    if soc is not None:
        _check_membership(
            out, [s.config.core_name for s in architecture.scheduled],
            soc.core_names,
        )
    _check_width_fit(out, architecture, resolved)
    if resolved is not None:
        _check_core_models(out, architecture, resolved)

    if config is not None:
        power_of = power_of if power_of is not None else config.power_of
        if power_budget is None:
            power_budget = config.power_budget
        if precedence is None:
            precedence = config.precedence
    if power_of is None and power_budget is not None and soc is not None:
        from repro.power.model import power_table

        compressed = architecture.placement is not DecompressorPlacement.NONE
        power_of = power_table(soc, compression=compressed)
    if power_of is not None:
        _check_power(out, slots, power_of, power_budget, stated_peak)
    _check_precedence(out, slots, precedence or ())
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

    :func:`verify_architecture` over the result's architecture with the
    result's own bookkeeping as inputs: its width budget, its power
    budget (else the config's) and its stated peak power.  These are the
    inputs the pipeline's verify stage passes, so a plan re-imported
    from its export gets the same checks as it did in process.
    """
    report = verify_architecture(
        result.architecture,
        soc=soc,
        config=config,
        analyses=analyses,
        width_budget=result.width_budget,
        power_of=power_of,
        power_budget=result.power_budget,
        stated_peak=result.peak_power,
        precedence=precedence,
    )
    return replace(report, subject=f"plan:{result.soc_name}")


def verify_packed(
    plan: "PackedPlan",
    core_names: Sequence[str],
    time_of: TimeFn,
) -> VerificationReport:
    """Re-check a :class:`~repro.pack.packer.PackedPlan`'s 2D geometry.

    Invariants, each re-derived from the raw rectangles:

    * ``rect-bounds`` -- every rectangle lies inside the
      ``width_budget``-wide strip and starts at time >= 0;
    * ``rect-overlap`` -- no two rectangles overlap in 2D: no wire is
      busy twice at one instant (the wire check
      :func:`verify_architecture` runs on a packed plan's TAM offsets);
    * ``channel-budget`` -- the instantaneous occupied width never
      exceeds the budget at any instant;
    * ``width-support`` -- each core runs at a width its wrapper table
      actually supports: ``time_of(name, width)`` must equal the
      rectangle's height exactly;
    * ``core-membership`` -- every core packed exactly once;
    * ``makespan`` -- the stated makespan equals the last finish.
    """
    out = _Collector()
    out.ran("width-support")
    for rect in plan.rects:
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
    peak = _check_wires(
        out,
        [
            _Slot(r.name, i, r.start, r.end, r.x, r.width)
            for i, r in enumerate(plan.rects)
        ],
        plan.width_budget,
        bounds="rect-bounds",
        overlap="rect-overlap",
    )
    out.ran("channel-budget")
    if peak > plan.width_budget:
        out.fail(
            "channel-budget",
            f"instantaneous occupied width {peak} > "
            f"{plan.width_budget} ATE channels",
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
