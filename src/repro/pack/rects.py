"""Per-core rectangle candidates from the wrapper/DSE tables.

A core is not one rectangle but a *family*: at every TAM width ``w``
the wrapper/decompressor co-design gives a test time ``tau_c(w, m)``
(a row of the same cost table the list scheduler reads), so the packer
may choose the shape as well as the position.  The family is staircase
monotone -- more wires never make a test slower -- so only the Pareto
corners matter: the *narrowest* width achieving each distinct test
time.  Pruning to those corners keeps the packer's candidate loop
linear in the number of distinct times instead of the full width range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.scheduler import TimeFn, TimeTable, as_table


@dataclass(frozen=True)
class RectCandidate:
    """One admissible shape for a core's rectangle."""

    width: int
    time: int

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"rectangle width must be >= 1, got {self.width}")
        if self.time < 0:
            raise ValueError(f"rectangle time must be >= 0, got {self.time}")


@dataclass(frozen=True)
class CoreRectangles:
    """A core's Pareto-pruned shape family, width ascending."""

    name: str
    candidates: tuple[RectCandidate, ...]

    def __post_init__(self) -> None:
        if not self.candidates:
            raise ValueError(f"core {self.name!r} has no rectangle candidates")
        for a, b in zip(self.candidates, self.candidates[1:]):
            if b.width <= a.width or b.time >= a.time:
                raise ValueError(
                    f"candidates for {self.name!r} must be strictly "
                    f"Pareto-ordered (width up, time down); got "
                    f"({a.width}, {a.time}) then ({b.width}, {b.time})"
                )

    @property
    def widest(self) -> RectCandidate:
        """The widest (fastest) shape."""
        return self.candidates[-1]

    @property
    def narrowest(self) -> RectCandidate:
        """The 1-wire-adjacent (tallest) shape."""
        return self.candidates[0]


def pareto_candidates(
    times_by_width: Sequence[tuple[int, int]]
) -> tuple[RectCandidate, ...]:
    """Keep the narrowest width for each distinct achievable time.

    ``times_by_width`` is ``(width, time)`` pairs sorted by width
    ascending.  A width whose time does not strictly improve on a
    narrower width is dominated (same or worse time for more wires)
    and dropped.
    """
    kept: list[RectCandidate] = []
    for width, time in times_by_width:
        if kept and time >= kept[-1].time:
            continue
        kept.append(RectCandidate(width=width, time=time))
    return tuple(kept)


def _thin(
    candidates: tuple[RectCandidate, ...], limit: int
) -> tuple[RectCandidate, ...]:
    """Subsample to ``limit`` shapes, always keeping both extremes."""
    if limit < 2:
        raise ValueError(f"max_widths must be >= 2, got {limit}")
    if len(candidates) <= limit:
        return candidates
    last = len(candidates) - 1
    picks = sorted({round(i * last / (limit - 1)) for i in range(limit)})
    return tuple(candidates[i] for i in picks)


def core_rectangles(
    names: Sequence[str],
    time_of: TimeTable | TimeFn,
    max_width: int,
    *,
    max_widths: int | None = None,
) -> tuple[CoreRectangles, ...]:
    """The rectangle family of every core, in input order.

    Reads the cost table's rows at every width ``1..max_width`` and
    prunes each core's times to the Pareto corners.  ``max_widths``
    optionally thins each family to at most that many shapes (extremes
    always kept) -- the knob behind ``--pack-opt max_widths=N`` for
    very wide budgets.
    """
    if max_width < 1:
        raise ValueError(f"max_width must be >= 1, got {max_width}")
    table = as_table(names, time_of)
    rows = [table.row(width) for width in range(1, max_width + 1)]
    families: list[CoreRectangles] = []
    for index, name in enumerate(table.core_names):
        corners = pareto_candidates([(w, row[index]) for w, row in enumerate(rows, 1)])
        if max_widths is not None:
            corners = _thin(corners, max_widths)
        families.append(CoreRectangles(name=name, candidates=corners))
    return tuple(families)
