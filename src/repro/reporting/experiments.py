"""Experiment drivers: one function per figure/table of the paper.

These are shared by the benchmark harness (``benchmarks/``), the example
scripts, and EXPERIMENTS.md generation, so the numbers in all three come
from the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.pipeline import PlanResult, RunConfig, plan
from repro.reporting.tables import format_table
from repro.soc.industrial import industrial_core, load_design


# ---------------------------------------------------------------------------
# Figure 2: test time vs wrapper-chain count at fixed code width.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Figure2Data:
    core_name: str
    code_width: int
    m_values: tuple[int, ...]
    test_times: tuple[int, ...]

    @property
    def tau_min(self) -> int:
        return min(self.test_times)

    @property
    def tau_max(self) -> int:
        return max(self.test_times)

    @property
    def argmin_m(self) -> int:
        best = min(range(len(self.m_values)), key=lambda i: self.test_times[i])
        return self.m_values[best]

    @property
    def relative_spread(self) -> float:
        """The paper's annotated ``(tau_max - tau_min) / tau_max``."""
        return (self.tau_max - self.tau_min) / self.tau_max

    @property
    def is_monotonic(self) -> bool:
        return all(
            b <= a for a, b in zip(self.test_times, self.test_times[1:])
        )


def figure2_data(
    core_name: str = "ckt-7",
    code_width: int = 10,
    *,
    grid: int | None = None,
    config: RunConfig | None = None,
) -> Figure2Data:
    """tau_c versus m for every m whose code width is ``code_width``.

    The paper plots ckt-7 at w = 10, i.e. m in [128, 255], and finds the
    minimum at m = 253 rather than at the maximum 255.
    """
    cfg = config or RunConfig()
    core = industrial_core(core_name)
    analysis = cfg.analyses(
        [core], grid=grid or 256, max_tam_width=code_width
    )[core.name]
    points = analysis.sweep_code_width(code_width)
    if not points:
        raise ValueError(f"{core_name} has no feasible m at code width {code_width}")
    return Figure2Data(
        core_name=core_name,
        code_width=code_width,
        m_values=tuple(p.m for p in points),
        test_times=tuple(p.test_time for p in points),
    )


def format_figure2(data: Figure2Data, *, every: int = 8) -> str:
    rows = [
        (m, t)
        for i, (m, t) in enumerate(zip(data.m_values, data.test_times))
        if i % every == 0 or m == data.argmin_m
    ]
    table = format_table(
        ["m (wrapper chains)", "test time (cycles)"],
        rows,
        title=(
            f"Figure 2 -- {data.core_name}, w={data.code_width}: "
            f"min at m={data.argmin_m}, spread "
            f"{100 * data.relative_spread:.1f}%"
        ),
    )
    return table


# ---------------------------------------------------------------------------
# Figure 3: lowest test time per TAM width.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Figure3Data:
    core_name: str
    code_widths: tuple[int, ...]
    test_times: tuple[int, ...]
    best_m: tuple[int, ...]

    def upticks(self) -> list[int]:
        """Code widths where widening the TAM *increases* the time."""
        return [
            self.code_widths[i]
            for i in range(len(self.test_times) - 1)
            if self.test_times[i] < self.test_times[i + 1]
        ]


def figure3_data(
    core_name: str = "ckt-7",
    code_widths: range = range(6, 15),
    *,
    grid: int | None = None,
    config: RunConfig | None = None,
) -> Figure3Data:
    """Minimum tau_c over m, for each exact decompressor input width w."""
    cfg = config or RunConfig()
    core = industrial_core(core_name)
    analysis = cfg.analyses(
        [core], grid=grid or 128, max_tam_width=max(code_widths)
    )[core.name]
    widths: list[int] = []
    times: list[int] = []
    best_ms: list[int] = []
    for w in code_widths:
        best = analysis.best_for_code_width(w)
        if best is None:
            continue
        widths.append(w)
        times.append(best.test_time)
        best_ms.append(best.m)
    return Figure3Data(
        core_name=core_name,
        code_widths=tuple(widths),
        test_times=tuple(times),
        best_m=tuple(best_ms),
    )


def format_figure3(data: Figure3Data) -> str:
    rows = list(zip(data.code_widths, data.best_m, data.test_times))
    upticks = data.upticks()
    note = (
        f"non-monotonic at w in {upticks}" if upticks else "monotonic over range"
    )
    return format_table(
        ["w (TAM wires)", "best m", "test time (cycles)"],
        rows,
        title=f"Figure 3 -- {data.core_name}: lowest test time per TAM width ({note})",
    )


# ---------------------------------------------------------------------------
# Figure 4: the three architecture alternatives.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Figure4Data:
    soc_name: str
    width_budget: int
    no_tdc: PlanResult
    per_tam: PlanResult
    per_core: PlanResult

    @property
    def per_core_wires(self) -> int:
        return self.per_core.architecture.total_tam_width

    @property
    def per_tam_wires(self) -> int:
        """Expanded on-chip wires behind the per-TAM decompressors."""
        return self.per_tam.architecture.total_tam_width


def figure4_data(
    soc_name: str = "System1",
    width: int = 31,
    *,
    max_tams: int | None = None,
    config: RunConfig | None = None,
) -> Figure4Data:
    """Plan the same SOC three ways, as in the paper's Figure 4."""
    cfg = config or RunConfig()
    if max_tams is not None:
        cfg = cfg.replace(max_tams=max_tams)
    soc = load_design(soc_name)
    no_tdc = plan(soc, width, cfg.replace(compression="none"))
    per_core = plan(soc, width, cfg.replace(compression="per-core"))
    per_tam = plan(soc, width, cfg.replace(compression="per-tam"))
    return Figure4Data(
        soc_name=soc_name,
        width_budget=width,
        no_tdc=no_tdc,
        per_tam=per_tam,
        per_core=per_core,
    )


def format_figure4(data: Figure4Data) -> str:
    rows = [
        (
            "(a) no TDC",
            data.no_tdc.test_time,
            data.no_tdc.architecture.total_tam_width,
            " ".join(str(w) for w in data.no_tdc.tam_widths),
        ),
        (
            "(b) decompressor per TAM",
            data.per_tam.test_time,
            data.per_tam_wires,
            " ".join(str(w) for w in data.per_tam.tam_widths),
        ),
        (
            "(c) decompressor per core",
            data.per_core.test_time,
            data.per_core_wires,
            " ".join(str(w) for w in data.per_core.tam_widths),
        ),
    ]
    return format_table(
        ["architecture", "test time", "on-chip TAM wires", "TAM widths"],
        rows,
        title=(
            f"Figure 4 -- {data.soc_name}, width budget "
            f"{data.width_budget}: per-core matches per-TAM test time with "
            "far fewer on-chip wires"
        ),
    )


# ---------------------------------------------------------------------------
# Tables 1 and 2: test time under ATE-channel / TAM-width constraints.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Table1Row:
    design: str
    ate_channels: int
    proposed_time: int
    soc_level_time: int | None

    @property
    def ratio(self) -> float | None:
        """proposed / soc-level (the tau_c / tau_[18] analogue)."""
        if not self.soc_level_time:
            return None
        return self.proposed_time / self.soc_level_time


@dataclass(frozen=True)
class Table2Row:
    design: str
    tam_width: int
    proposed_time: int
    soc_level_time: int | None
    soc_level_channels: int | None

    @property
    def ratio(self) -> float | None:
        if not self.soc_level_time:
            return None
        return self.proposed_time / self.soc_level_time


def table1_rows(
    designs: tuple[str, ...] = ("d695", "d2758"),
    channels: tuple[int, ...] = (16, 24, 32),
    *,
    include_soc_level: bool = True,
    config: RunConfig | None = None,
) -> list[Table1Row]:
    """Table 1: minimize test time at an ATE-channel budget.

    With per-core decompression ATE channels equal TAM wires, so the
    proposed approach is the standard pipeline at ``W = W_ATE``.  The
    comparator is the SOC-level ("virtual TAM") decompressor, which is
    built for exactly this constraint.
    """
    from repro.core.soclevel import optimize_soc_level_decompressor

    cfg = (config or RunConfig()).replace(
        compression="per-core"
    )
    rows = []
    for design in designs:
        soc = load_design(design)
        for w_ate in channels:
            proposed = plan(soc, w_ate, cfg)
            soc_level_time = None
            if include_soc_level:
                soc_level = optimize_soc_level_decompressor(soc, w_ate)
                soc_level_time = soc_level.test_time
            rows.append(
                Table1Row(
                    design=design,
                    ate_channels=w_ate,
                    proposed_time=proposed.test_time,
                    soc_level_time=soc_level_time,
                )
            )
    return rows


def format_table1(rows: list[Table1Row]) -> str:
    grid = [
        (
            r.design,
            r.ate_channels,
            r.proposed_time,
            r.soc_level_time if r.soc_level_time is not None else "n.a.",
            r.ratio if r.ratio is not None else "n.a.",
        )
        for r in rows
    ]
    return format_table(
        ["design", "W_ATE", "tau proposed", "tau soc-level", "ratio"],
        grid,
        title="Table 1 -- test time at an ATE-channel constraint",
    )


def table2_rows(
    designs: tuple[str, ...] = ("d695",),
    widths: tuple[int, ...] = (16, 24, 32, 48, 64),
    *,
    include_soc_level: bool = True,
    config: RunConfig | None = None,
) -> list[Table2Row]:
    """Table 2: minimize test time at a TAM-wire budget.

    The SOC-level comparator must fit its *internal* (expanded) TAM in
    the same wire budget, which forces a narrow virtual TAM -- the
    regime where the paper says it loses to per-core decompression.
    """
    from repro.core.soclevel import optimize_soc_level_decompressor

    cfg = (config or RunConfig()).replace(
        compression="per-core"
    )
    rows = []
    for design in designs:
        soc = load_design(design)
        for w_tam in widths:
            proposed = plan(soc, w_tam, cfg)
            soc_time = None
            soc_channels = None
            if include_soc_level:
                from repro.compression.selective import code_parameters

                _, code_width = code_parameters(w_tam)
                soc_level = optimize_soc_level_decompressor(
                    soc, code_width, internal_width=w_tam
                )
                soc_time = soc_level.test_time
                soc_channels = code_width
            rows.append(
                Table2Row(
                    design=design,
                    tam_width=w_tam,
                    proposed_time=proposed.test_time,
                    soc_level_time=soc_time,
                    soc_level_channels=soc_channels,
                )
            )
    return rows


def format_table2(rows: list[Table2Row]) -> str:
    grid = [
        (
            r.design,
            r.tam_width,
            r.proposed_time,
            r.soc_level_time if r.soc_level_time is not None else "n.a.",
            r.ratio if r.ratio is not None else "n.a.",
        )
        for r in rows
    ]
    return format_table(
        ["design", "W_TAM", "tau proposed", "tau soc-level", "ratio"],
        grid,
        title="Table 2 -- test time at a TAM-width constraint",
    )


# ---------------------------------------------------------------------------
# Table 3: with/without TDC at several TAM widths.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Table3Row:
    design: str
    gates: int
    initial_volume_bits: int
    tam_width: int
    time_no_tdc: int
    volume_no_tdc: int
    cpu_no_tdc: float
    time_tdc: int
    volume_tdc: int
    cpu_tdc: float

    @property
    def time_reduction(self) -> float:
        """tau_nc / tau_c (Table 3's "time reduction factor")."""
        return self.time_no_tdc / self.time_tdc if self.time_tdc else float("inf")

    @property
    def volume_reduction_vs_initial(self) -> float:
        """V_i / V_c."""
        return (
            self.initial_volume_bits / self.volume_tdc
            if self.volume_tdc
            else float("inf")
        )

    @property
    def volume_reduction(self) -> float:
        """V_nc / V_c."""
        return (
            self.volume_no_tdc / self.volume_tdc if self.volume_tdc else float("inf")
        )


def table3_rows(
    designs: tuple[str, ...] = (
        "d695",
        "System1",
        "System2",
        "System3",
        "System4",
    ),
    widths: tuple[int, ...] = (16, 32, 48, 64),
    *,
    compression: str = "per-core",
    config: RunConfig | None = None,
) -> list[Table3Row]:
    """Table 3: the paper's headline with-vs-without-TDC comparison."""
    cfg = config or RunConfig()
    rows = []
    for design in designs:
        soc = load_design(design)
        for width in widths:
            plain = plan(soc, width, cfg.replace(compression="none"))
            packed = plan(soc, width, cfg.replace(compression=compression))
            rows.append(
                Table3Row(
                    design=design,
                    gates=soc.gates,
                    initial_volume_bits=soc.initial_test_data_volume,
                    tam_width=width,
                    time_no_tdc=plain.test_time,
                    volume_no_tdc=plain.test_data_volume,
                    cpu_no_tdc=plain.cpu_seconds,
                    time_tdc=packed.test_time,
                    volume_tdc=packed.test_data_volume,
                    cpu_tdc=packed.cpu_seconds,
                )
            )
    return rows


def format_table3(rows: list[Table3Row]) -> str:
    """Table 3 as text, without the two CPU columns.

    Wall-clock time differs from run to run; leaving it out makes the
    same plans always print the same table, so the recorded
    ``benchmarks/results/table3*.txt`` files only change with the plans.
    """
    grid = []
    for r in rows:
        grid.append(
            (
                r.design,
                r.tam_width,
                round(r.time_no_tdc / 1e3),
                round(r.volume_no_tdc / 1e6, 2),
                round(r.time_tdc / 1e3),
                round(r.volume_tdc / 1e6, 2),
                round(r.time_reduction, 2),
                round(r.volume_reduction_vs_initial, 2),
                round(r.volume_reduction, 2),
            )
        )
    industrial = [r for r in rows if r.design.startswith("System")]
    avg_all = sum(r.time_reduction for r in rows) / len(rows) if rows else 0.0
    avg_ind = (
        sum(r.time_reduction for r in industrial) / len(industrial)
        if industrial
        else 0.0
    )
    table = format_table(
        [
            "design",
            "W_TAM",
            "tau_nc (kcyc)",
            "V_nc (Mbit)",
            "tau_c (kcyc)",
            "V_c (Mbit)",
            "tau_nc/tau_c",
            "V_i/V_c",
            "V_nc/V_c",
        ],
        grid,
        title="Table 3 -- test time / volume with and without TDC",
    )
    return (
        table
        + f"\naverage time reduction, all designs: {avg_all:.2f}x"
        + f"\naverage time reduction, industrial designs: {avg_ind:.2f}x"
    )
