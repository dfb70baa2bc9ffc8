"""Bottom-left and diagonal-length rectangle packing of core tests.

Both heuristics place one rectangle per core, largest-first, onto a
:class:`~repro.pack.skyline.Skyline`, choosing the core's shape (which
admissible width) and position together:

* **bottom-left** (arXiv 1008.3320): pick the candidate/position pair
  finishing earliest -- minimize ``(finish, support, x, width)``, the
  list scheduler's greedy rule generalized to 2D;
* **diagonal** (arXiv 1008.4446): pick the pair whose occupied corner
  ``(x + width, finish)`` stays closest to the origin under normalized
  axes -- minimize the squared diagonal length
  ``((x + w) / W)^2 + (finish / T)^2`` with ``T`` the area lower bound
  ``ceil(total area / W)``.  Growing the two axes in balance avoids the
  bottom-left rule's tall-and-narrow towers when wide rectangles
  remain.

Every tie breaks deterministically (finish, support, x, width, and
placement order breaks ties by core name), so packed plans are
bit-stable across runs -- the repo-wide contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.core.architecture import (
    DecompressorPlacement,
    ScheduledCore,
    Tam,
    TestArchitecture,
)
from repro.core.scheduler import ConfigFn
from repro.pack.rects import CoreRectangles
from repro.pack.skyline import Skyline

#: The registered placement heuristics (``auto`` packs with both and
#: keeps the better makespan).
HEURISTICS: tuple[str, ...] = ("bottom-left", "diagonal")


@dataclass(frozen=True)
class PackedRect:
    """One core's placed rectangle: wires ``[x, x+width)``, time ``[start, end)``."""

    name: str
    x: int
    width: int
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"packed width must be >= 1, got {self.width}")
        if self.x < 0:
            raise ValueError(f"negative wire offset {self.x}")
        if self.end < self.start:
            raise ValueError(
                f"rectangle ends at {self.end} before it starts at {self.start}"
            )


@dataclass(frozen=True)
class PackedPlan:
    """A complete packing of one SOC's core tests into the TAM strip."""

    soc_name: str
    width_budget: int
    heuristic: str
    rects: tuple[PackedRect, ...]
    placements_evaluated: int = 0

    @property
    def makespan(self) -> int:
        """SOC test time: the top edge of the highest rectangle."""
        return max((r.end for r in self.rects), default=0)

    @property
    def occupied_area(self) -> int:
        """Total rectangle area (wire-cycles actually streaming)."""
        return sum(r.width * (r.end - r.start) for r in self.rects)

    @property
    def utilization(self) -> float:
        """Occupied area over the ``W x makespan`` strip (idle = waste)."""
        strip = self.width_budget * self.makespan
        return self.occupied_area / strip if strip else 0.0


def area_lower_bound(
    families: Sequence[CoreRectangles], width_budget: int
) -> int:
    """``ceil(min total area / W)``: no packing can finish earlier.

    Uses each core's minimum-area shape, so the bound holds whatever
    widths the packer picks.
    """
    total = sum(
        min(c.width * c.time for c in family.candidates)
        for family in families
    )
    return -(-total // width_budget)


def _placement_order(
    families: Sequence[CoreRectangles],
    heuristic: str,
    width_budget: int,
    time_scale: int,
) -> list[CoreRectangles]:
    """Largest-first placement order; big rectangles placed early pack
    tight, stragglers fill the gaps."""
    if heuristic == "diagonal":
        def size(family: CoreRectangles) -> float:
            widest = family.widest
            return math.hypot(
                widest.width / width_budget, widest.time / time_scale
            )
    else:
        def size(family: CoreRectangles) -> float:
            return float(family.widest.time)
    return sorted(families, key=lambda f: (-size(f), f.name))


def pack_rectangles(
    soc_name: str,
    families: Sequence[CoreRectangles],
    width_budget: int,
    *,
    heuristic: str = "bottom-left",
) -> PackedPlan:
    """Pack every core's rectangle into the ``width_budget``-wire strip.

    ``heuristic`` is one of :data:`HEURISTICS`; ``"auto"`` runs both
    and returns the plan with the smaller makespan (ties prefer
    bottom-left, the cheaper rule).
    """
    if heuristic == "auto":
        plans = [
            pack_rectangles(
                soc_name, families, width_budget, heuristic=name
            )
            for name in HEURISTICS
        ]
        best = min(plans, key=lambda p: (p.makespan, HEURISTICS.index(p.heuristic)))
        evaluated = sum(p.placements_evaluated for p in plans)
        return PackedPlan(
            soc_name=best.soc_name,
            width_budget=best.width_budget,
            heuristic=best.heuristic,
            rects=best.rects,
            placements_evaluated=evaluated,
        )
    if heuristic not in HEURISTICS:
        raise ValueError(
            f"unknown packing heuristic {heuristic!r}; "
            f"expected one of {HEURISTICS + ('auto',)}"
        )
    for family in families:
        if family.widest.width > width_budget:
            raise ValueError(
                f"core {family.name!r} offers a {family.widest.width}-wide "
                f"shape but the strip is only {width_budget} wires"
            )

    # Normalization scale for the diagonal rule: the area lower bound
    # (clamped to >= 1) makes "one strip width" and "one ideal
    # makespan" the same unit length.
    time_scale = max(1, area_lower_bound(families, width_budget))
    skyline = Skyline(width_budget)
    rects: list[PackedRect] = []
    evaluated = 0
    for family in _placement_order(
        families, heuristic, width_budget, time_scale
    ):
        best_key: tuple | None = None
        best: tuple[int, int, int, int] | None = None  # (x, w, start, end)
        for candidate in family.candidates:
            for x, support in skyline.positions(candidate.width):
                evaluated += 1
                finish = support + candidate.time
                tie = (finish, support, x, candidate.width)
                if heuristic == "diagonal":
                    reach = (x + candidate.width) / width_budget
                    rise = finish / time_scale
                    key = (reach * reach + rise * rise,) + tie
                else:
                    key = tie
                if best_key is None or key < best_key:
                    best_key = key
                    best = (x, candidate.width, support, finish)
        assert best is not None  # families are non-empty by construction
        x, w, start, end = best
        skyline.place(x, w, end)
        rects.append(
            PackedRect(name=family.name, x=x, width=w, start=start, end=end)
        )
    return PackedPlan(
        soc_name=soc_name,
        width_budget=width_budget,
        heuristic=heuristic,
        rects=tuple(rects),
        placements_evaluated=evaluated,
    )


def packed_architecture(
    plan: PackedPlan,
    config_of: ConfigFn,
    *,
    placement: DecompressorPlacement,
) -> TestArchitecture:
    """Materialize a :class:`PackedPlan` as a :class:`TestArchitecture`.

    Each rectangle becomes its own single-core TAM of the chosen width
    at its wire offset (TAM indices follow placement order), so the
    architecture's existing validation, rendering, export, and model
    checks all apply.  The sum of TAM widths may legitimately exceed
    ``ate_channels`` -- rectangles *time-share* wires -- so the offsets
    let the verifier check that no two TAMs busy at once share a wire.
    """
    tams = []
    scheduled = []
    for index, rect in enumerate(plan.rects):
        config = config_of(rect.name, rect.width)
        if config.test_time != rect.end - rect.start:
            raise ValueError(
                f"rectangle for {rect.name!r} is {rect.end - rect.start} "
                f"cycles tall but the {rect.width}-wire config needs "
                f"{config.test_time}"
            )
        tams.append(Tam(index=index, width=rect.width, offset=rect.x))
        scheduled.append(
            ScheduledCore(
                config=config,
                tam_index=index,
                start=rect.start,
                end=rect.end,
            )
        )
    return TestArchitecture(
        soc_name=plan.soc_name,
        placement=placement,
        tams=tuple(tams),
        scheduled=tuple(scheduled),
        ate_channels=plan.width_budget,
    )
