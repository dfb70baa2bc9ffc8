"""Test-architecture data model: TAMs, per-core configurations, schedules.

A :class:`TestArchitecture` is the complete answer the optimizer
produces: the TAM partition, where every core sits, when it is tested,
and with which wrapper/decompressor configuration.  It is deliberately a
plain data object -- the optimization logic lives in
:mod:`repro.core.scheduler`, :mod:`repro.core.partition` and the
:mod:`repro.pipeline` stages that call them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class DecompressorPlacement(enum.Enum):
    """Where test-pattern expansion happens, if anywhere (Figure 4)."""

    NONE = "none"  # Figure 4(a): no TDC
    PER_CORE = "per-core"  # Figure 4(c): the paper's proposal
    PER_TAM = "per-tam"  # Figure 4(b)
    SOC_LEVEL = "soc-level"  # the virtual-TAM comparator (ref [18])


@dataclass(frozen=True)
class Tam:
    """One fixed-width test access mechanism bus.

    ``offset`` is the first ATE channel the TAM occupies, set only where
    TAMs time-share wires (one per packed rectangle); a TAM without one
    owns its wires for the whole test.
    """

    index: int
    width: int
    offset: int | None = None

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"TAM width must be >= 1, got {self.width}")


@dataclass(frozen=True)
class CoreConfig:
    """The per-core design choice behind a scheduled test.

    ``uses_compression`` selects between the two time models: without
    compression ``tam_width == wrapper_chains``; with compression the
    decompressor expands ``code_width`` TAM bits into ``wrapper_chains``
    wrapper-chain bits each cycle.  ``technique`` names the compression
    scheme ("none", "selective", or "dictionary"); the default "auto"
    resolves from ``uses_compression``.
    """

    core_name: str
    uses_compression: bool
    wrapper_chains: int
    code_width: int | None
    test_time: int
    volume: int
    technique: str = "auto"

    def __post_init__(self) -> None:
        if self.uses_compression and self.code_width is None:
            raise ValueError("compressed config needs a code width")
        if self.test_time < 0 or self.volume < 0:
            raise ValueError("test time and volume must be >= 0")
        if self.technique == "auto":
            resolved = "selective" if self.uses_compression else "none"
            object.__setattr__(self, "technique", resolved)
        elif self.technique not in ("none", "selective", "dictionary"):
            raise ValueError(f"unknown technique {self.technique!r}")
        if self.technique != "none" and not self.uses_compression:
            raise ValueError(
                f"technique {self.technique!r} requires uses_compression"
            )
        if self.technique == "none" and self.uses_compression:
            raise ValueError("compressed config cannot use technique 'none'")


@dataclass(frozen=True)
class ScheduledCore:
    """A core's slot in the schedule: which TAM, and when."""

    config: CoreConfig
    tam_index: int
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end - self.start != self.config.test_time:
            raise ValueError(
                f"slot length {self.end - self.start} != test time "
                f"{self.config.test_time} for {self.config.core_name}"
            )


@dataclass(frozen=True)
class TestArchitecture:
    """A complete SOC test architecture and schedule.

    ``ate_cycles`` is the cycles the ATE needs to feed the stream when
    that outlasts the schedule (one codeword per cycle into a chip-level
    decompressor); 0 when the schedule alone sets the test time.
    """

    __test__ = False  # "Test" prefix is domain vocabulary, not a pytest class

    soc_name: str
    placement: DecompressorPlacement
    tams: tuple[Tam, ...]
    scheduled: tuple[ScheduledCore, ...]
    ate_channels: int
    ate_cycles: int = 0

    def __post_init__(self) -> None:
        tam_indices = {t.index for t in self.tams}
        for item in self.scheduled:
            if item.tam_index not in tam_indices:
                raise ValueError(
                    f"{item.config.core_name} scheduled on unknown TAM "
                    f"{item.tam_index}"
                )
        # Overlap check: tests on the same TAM must not overlap in time.
        by_tam: dict[int, list[ScheduledCore]] = {}
        for item in self.scheduled:
            by_tam.setdefault(item.tam_index, []).append(item)
        for items in by_tam.values():
            items.sort(key=lambda s: s.start)
            for a, b in zip(items, items[1:]):
                if b.start < a.end:
                    raise ValueError(
                        f"overlap on TAM {a.tam_index}: "
                        f"{a.config.core_name} [{a.start}, {a.end}) vs "
                        f"{b.config.core_name} [{b.start}, {b.end})"
                    )

    # ------------------------------------------------------------------

    @property
    def total_tam_width(self) -> int:
        """Sum of on-chip TAM wire widths (Figure 4's wire-cost metric)."""
        return sum(t.width for t in self.tams)

    @property
    def test_time(self) -> int:
        """SOC test time: when the last core finishes, or the ATE does."""
        last = max((s.end for s in self.scheduled), default=0)
        return max(self.ate_cycles, last)

    @property
    def test_data_volume(self) -> int:
        """Total stimulus bits the ATE stores for this architecture."""
        return sum(s.config.volume for s in self.scheduled)

    @property
    def cores_per_tam(self) -> dict[int, tuple[str, ...]]:
        out: dict[int, list[str]] = {t.index: [] for t in self.tams}
        for item in sorted(self.scheduled, key=lambda s: s.start):
            out[item.tam_index].append(item.config.core_name)
        return {k: tuple(v) for k, v in out.items()}

    def tam_finish_times(self) -> dict[int, int]:
        out = {t.index: 0 for t in self.tams}
        for item in self.scheduled:
            out[item.tam_index] = max(out[item.tam_index], item.end)
        return out

    def config_for(self, core_name: str) -> CoreConfig:
        for item in self.scheduled:
            if item.config.core_name == core_name:
                return item.config
        raise KeyError(f"core {core_name!r} not in architecture")

    # ------------------------------------------------------------------

    def render_gantt(self, width: int = 72) -> str:
        """ASCII Gantt chart of the schedule (one row per TAM).

        Every slot gets at least one cell, and slots that do not overlap
        in time never share a cell: a per-TAM cursor pushes each slot
        past the previous one when rounding would land them on the same
        column (a short test next to a long one used to be painted over
        entirely).
        """
        total = self.test_time
        if total == 0:
            return "(empty schedule)"
        lines = []
        for tam in self.tams:
            row = [" "] * width
            items = sorted(
                (s for s in self.scheduled if s.tam_index == tam.index),
                key=lambda s: (s.start, s.end),
            )
            cursor = 0
            for item in items:
                lo = max(int(item.start / total * width), cursor)
                if lo >= width:
                    break
                hi = min(max(lo + 1, int(item.end / total * width)), width)
                label = item.config.core_name[: hi - lo]
                for pos in range(lo, hi):
                    row[pos] = "#"
                for offset, ch in enumerate(label):
                    row[lo + offset] = ch
                cursor = hi
            lines.append(f"TAM{tam.index} (w={tam.width:>3}) |{''.join(row)}|")
        lines.append(f"total: {total} cycles, {self.total_tam_width} TAM wires")
        return "\n".join(lines)


def architecture_summary(arch: TestArchitecture) -> str:
    """One-paragraph textual description of an architecture."""
    parts = [
        f"{arch.soc_name}: placement={arch.placement.value}, "
        f"{len(arch.tams)} TAM(s) "
        f"({', '.join(str(t.width) for t in arch.tams)} wires), "
        f"ATE channels={arch.ate_channels}, "
        f"test time={arch.test_time} cycles, "
        f"volume={arch.test_data_volume} bits"
    ]
    for tam_index, names in arch.cores_per_tam.items():
        parts.append(f"  TAM{tam_index}: {' -> '.join(names) if names else '(idle)'}")
    return "\n".join(parts)
