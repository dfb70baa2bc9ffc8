"""Schedule profiling: TAM utilization and power-over-time rendering.

Complements the Gantt view with the two numbers planners look at
first: how busy each TAM bus actually is (idle wires are wasted
routing), and what the SOC's power envelope looks like over the test
session (the constraint the power-aware scheduler trades against).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.architecture import TestArchitecture
from repro.core.timeline import power_steps


@dataclass(frozen=True)
class TamUtilization:
    """Busy statistics for one TAM."""

    tam_index: int
    width: int
    busy_cycles: int
    total_cycles: int

    @property
    def utilization(self) -> float:
        return self.busy_cycles / self.total_cycles if self.total_cycles else 0.0

    @property
    def wire_cycles_wasted(self) -> int:
        """Idle cycles times width: the routing investment left unused."""
        return (self.total_cycles - self.busy_cycles) * self.width


def tam_utilization(architecture: TestArchitecture) -> list[TamUtilization]:
    """Per-TAM busy fraction over the SOC test session."""
    total = architecture.test_time
    stats = []
    for tam in architecture.tams:
        busy = sum(
            slot.end - slot.start
            for slot in architecture.scheduled
            if slot.tam_index == tam.index
        )
        stats.append(
            TamUtilization(
                tam_index=tam.index,
                width=tam.width,
                busy_cycles=busy,
                total_cycles=total,
            )
        )
    return stats


def render_utilization(architecture: TestArchitecture) -> str:
    """Text report of per-TAM utilization."""
    stats = tam_utilization(architecture)
    lines = ["TAM utilization:"]
    for s in stats:
        bar = "#" * int(round(30 * s.utilization))
        lines.append(
            f"  TAM{s.tam_index} (w={s.width:>3}) "
            f"|{bar:<30}| {100 * s.utilization:5.1f}% busy, "
            f"{s.wire_cycles_wasted:,} wire-cycles idle"
        )
    total_wire_cycles = sum(
        s.total_cycles * s.width for s in stats
    )
    wasted = sum(s.wire_cycles_wasted for s in stats)
    if total_wire_cycles:
        lines.append(
            f"  overall: {100 * (1 - wasted / total_wire_cycles):.1f}% of "
            f"wire-cycles carry test data"
        )
    return "\n".join(lines)


def power_profile(
    architecture: TestArchitecture, power_of: Mapping[str, float]
) -> list[tuple[int, float]]:
    """Step function of SOC power over time: (time, level) breakpoints.

    The returned list starts at time 0 and each entry gives the level
    from that time until the next breakpoint; it is the same sweep the
    constrained schedulers take their peak from.
    """
    return power_steps(
        (slot.start, slot.end, float(power_of.get(slot.config.core_name, 0.0)))
        for slot in architecture.scheduled
    )


def peak_power(profile: Sequence[tuple[int, float]]) -> float:
    return max((level for _, level in profile), default=0.0)


def render_power_profile(
    architecture: TestArchitecture,
    power_of: Mapping[str, float],
    *,
    width: int = 64,
    height: int = 8,
    budget: float | None = None,
) -> str:
    """ASCII chart of the SOC power envelope over the session."""
    total = architecture.test_time
    if total == 0:
        return "(empty schedule)"
    profile = power_profile(architecture, power_of)
    top = max(peak_power(profile), budget or 0.0) or 1.0

    # Sample the step function into `width` columns (max within column).
    columns = [0.0] * width
    for (t0, level), (t1, _) in zip(profile, profile[1:] + [(total, 0.0)]):
        lo = min(width - 1, int(t0 / total * width))
        hi = min(width, max(lo + 1, int(-(-t1 * width // total))))
        for col in range(lo, hi):
            columns[col] = max(columns[col], level)

    rows = []
    for r in range(height, 0, -1):
        threshold = top * (r - 0.5) / height
        line = "".join("#" if c >= threshold else " " for c in columns)
        marker = ""
        if budget is not None and abs(threshold - budget) <= top / (2 * height):
            marker = "  <- budget"
        rows.append(f"  |{line}|{marker}")
    rows.append(f"  peak {peak_power(profile):.1f} over {total:,} cycles"
                + (f", budget {budget:.1f}" if budget is not None else ""))
    return "power profile:\n" + "\n".join(rows)
