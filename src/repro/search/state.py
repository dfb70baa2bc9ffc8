"""Shared value objects of the architecture-search layer.

Every backend searches the same space: a TAM width vector (an integer
partition of the budget) plus an explicit core-to-TAM assignment.
:class:`SearchState` is that point, with the canonicalization every
backend must apply before reporting (widths sorted descending, TAM
indices remapped accordingly), so states coming out of different
backends -- or out of a resumed study -- compare equal when they denote
the same architecture.

:class:`SearchSpace` is the clamped, validated search domain.
:func:`resolve_search_space` is the **one** place the
``max_parts`` / ``min_width`` clamp-and-validate logic lives, so every
strategy rejects the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.scheduler import ScheduleOutcome


@dataclass(frozen=True)
class SearchState:
    """One point of the joint (partition, assignment) space."""

    widths: tuple[int, ...]
    assignment: tuple[int, ...]  # per core (input order), the TAM index

    def __post_init__(self) -> None:
        if not self.widths:
            raise ValueError("a search state needs at least one TAM")
        if any(w < 1 for w in self.widths):
            raise ValueError(f"TAM widths must be >= 1, got {self.widths}")
        k = len(self.widths)
        if any(not 0 <= t < k for t in self.assignment):
            raise ValueError(
                f"assignment references TAMs outside 0..{k - 1}: "
                f"{self.assignment}"
            )

    @property
    def total_width(self) -> int:
        return sum(self.widths)

    def canonical(self) -> "SearchState":
        """Widths sorted descending, assignment remapped to match.

        The sort is stable, so equal widths keep their relative order --
        exactly the canonicalization the historical annealer applied
        (pinned by the golden fingerprints).
        """
        order = sorted(range(len(self.widths)), key=lambda t: -self.widths[t])
        remap = {old: new for new, old in enumerate(order)}
        return SearchState(
            widths=tuple(self.widths[t] for t in order),
            assignment=tuple(remap[t] for t in self.assignment),
        )

    def outcome(self, makespan: int) -> ScheduleOutcome:
        """Materialize as a scheduler outcome (no canonicalization)."""
        return ScheduleOutcome(
            widths=self.widths, makespan=makespan, assignment=self.assignment
        )


@dataclass(frozen=True)
class PartitionSearchResult:
    """Best architecture found by a search, with its schedule.

    Defined here (the search layer owns it) and re-exported from
    :mod:`repro.core.partition` for the pre-refactor import path.
    """

    outcome: ScheduleOutcome
    partitions_evaluated: int
    strategy: str

    @property
    def widths(self) -> tuple[int, ...]:
        return self.outcome.widths

    @property
    def makespan(self) -> int:
        return self.outcome.makespan


@dataclass(frozen=True)
class SearchSpace:
    """The validated domain one search runs over."""

    total_width: int
    max_parts: int
    min_width: int

    @property
    def single_tam(self) -> tuple[int, ...]:
        """The trivial full-width partition (always feasible)."""
        return (self.total_width,)


def resolve_search_space(
    num_cores: int,
    total_width: int,
    *,
    max_parts: int | None = None,
    min_width: int = 1,
) -> SearchSpace:
    """Clamp and validate the search controls into a :class:`SearchSpace`.

    Shared by every entry point (:func:`~repro.search.backend.run_search`
    and the pipeline's architecture stages), so the rules cannot drift:

    * ``max_parts`` defaults to ``min(num_cores, 6)`` (the paper never
      needs more TAMs than cores, and caps the enumeration at 6);
    * ``max_parts`` is clamped down so every TAM can still get
      ``min_width`` wires;
    * a budget that cannot host even one ``min_width`` TAM raises, as
      does an explicit ``max_parts < 1``.
    """
    if num_cores < 1:
        raise ValueError("cannot design an architecture for zero cores")
    if total_width < 1:
        raise ValueError(f"total width must be >= 1, got {total_width}")
    if min_width < 1:
        raise ValueError(f"min_width must be >= 1, got {min_width}")
    if max_parts is None:
        max_parts = min(num_cores, 6)
    if max_parts < 1:
        raise ValueError(f"max_parts must be >= 1, got {max_parts}")
    max_parts = min(max_parts, total_width // min_width)
    if max_parts < 1:
        raise ValueError(
            f"width {total_width} cannot host a TAM of min width {min_width}"
        )
    return SearchSpace(
        total_width=total_width, max_parts=max_parts, min_width=min_width
    )
