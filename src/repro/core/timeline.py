"""Constrained test scheduling: power, precedence, preemption (extension).

The paper's scheduler packs cores back-to-back per TAM.  Real test
plans carry two further constraint families the SOC test-scheduling
literature (including the authors' follow-up work) treats as standard:

* a **power budget** -- the summed flat power of concurrently running
  core tests must stay below ``power_budget`` at all times (Chou et
  al.'s model); and
* **precedence** -- core B's test may only start after core A's test
  completed (e.g. a memory built off a repaired block, or diagnostic
  ordering).

Both schedulers here run the paper's longest-first list heuristic in
one loop and differ only in how a core is placed on a TAM:

* :func:`schedule_constrained` starts a core after its TAM's last
  test, *delayed* past the bus-free time (inserting TAM idle time)
  until its predecessors are done and the power profile admits it.
  With no constraints given it reduces exactly to the paper's
  scheduler (property-tested).
* :func:`schedule_preemptive` lets a test be *split* at pattern
  boundaries (Iyengar & Chakrabarty, "System-on-a-Chip Test Scheduling
  With Precedence Relationships, Preemption, and Power Constraints"):
  when a power budget blocks a long test, its remainder resumes later
  and shorter tests fill the gap.  A core fills the earliest TAM-free,
  power-feasible windows piecewise, up to ``max_segments`` pieces (each
  one a separate pattern burst on the ATE); the final piece runs to
  completion.  With no power budget it degenerates to back-to-back
  non-preemptive scheduling.

Both return a :class:`ConstrainedSchedule` of :class:`Segment` pieces
(a non-preemptive test is one segment), and :func:`power_steps` is the
power sweep they share with :mod:`repro.reporting.profile`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Mapping, Sequence

from repro.core.architecture import (
    DecompressorPlacement,
    ScheduledCore,
    Tam,
    TestArchitecture,
)
from repro.core.scheduler import ConfigFn, TimeFn, TimeTable, as_table

#: A per-core flat test power: a map by core name, or a callback.
PowerMap = Mapping[str, float] | Callable[[str], float]

#: Windows smaller than this are not worth a preemption (ATE burst
#: setup dominates); expressed in cycles.
MIN_SEGMENT = 1

#: Where one core's test goes on one TAM: ``(start, end)`` pieces.
_Pieces = list[tuple[int, int]]


@dataclass(frozen=True)
class Segment:
    """One contiguous piece of a placed core test on the global timeline.

    A non-preemptive test is one segment; the pieces of a split test
    are numbered from 0 in start order.
    """

    name: str
    tam: int
    start: int
    end: int
    power: float
    index: int = 0

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class ConstrainedSchedule:
    """Outcome of constrained scheduling for one TAM partition."""

    widths: tuple[int, ...]
    segments: tuple[Segment, ...]
    makespan: int
    peak_power: float

    def segments_for(self, name: str) -> tuple[Segment, ...]:
        return tuple(
            sorted(
                (s for s in self.segments if s.name == name),
                key=lambda s: s.start,
            )
        )

    @property
    def tam_idle_cycles(self) -> int:
        """Total bus idle time inserted to satisfy the constraints."""
        idle = 0
        by_tam: dict[int, list[Segment]] = {}
        for segment in self.segments:
            by_tam.setdefault(segment.tam, []).append(segment)
        for items in by_tam.values():
            items.sort(key=lambda s: s.start)
            clock = 0
            for segment in items:
                idle += segment.start - clock
                clock = segment.end
        return idle

    @property
    def preemption_count(self) -> int:
        """Total number of splits across all cores."""
        return len(self.segments) - len({s.name for s in self.segments})


def power_steps(
    spans: Iterable[tuple[int, int, float]],
) -> list[tuple[int, float]]:
    """Summed power over time as ``(time, level)`` breakpoints from time 0.

    ``spans`` are ``(start, end, power)`` triples.  Each breakpoint gives
    the level from its time until the next one.  Events are summed in
    ``(time, delta)`` order: within one time the level first falls, then
    rises, so no level between breakpoints exceeds both of its
    neighbours and the highest breakpoint is the profile's peak.
    """
    events: list[tuple[int, float]] = []
    for start, end, power in spans:
        events.append((start, power))
        events.append((end, -power))
    events.sort()
    level = 0.0
    steps: list[tuple[int, float]] = []
    for time, delta in events:
        level += delta
        if steps and steps[-1][0] == time:
            steps[-1] = (time, level)
        else:
            steps.append((time, level))
    if not steps or steps[0][0] > 0:
        steps.insert(0, (0, 0.0))
    return steps


def core_powers(
    core_names: Sequence[str], power_of: PowerMap | None
) -> list[float]:
    """Every core's flat test power, in order; a map must name every core."""
    if power_of is None:
        return [0.0] * len(core_names)
    if callable(power_of):
        return [float(power_of(name)) for name in core_names]
    missing = [name for name in core_names if name not in power_of]
    if missing:
        raise ValueError(f"the power map has no entry for core(s) {', '.join(missing)}")
    return [float(power_of[name]) for name in core_names]


class PrecedenceError(ValueError):
    """Raised for cyclic or dangling precedence constraints."""


def _check_precedence(
    names: Sequence[str], precedence: Sequence[tuple[str, str]]
) -> dict[str, set[str]]:
    known = set(names)
    preds: dict[str, set[str]] = {name: set() for name in names}
    for before, after in precedence:
        if before not in known or after not in known:
            raise PrecedenceError(
                f"precedence ({before!r} -> {after!r}) names unknown cores"
            )
        if before == after:
            raise PrecedenceError(f"core {before!r} cannot precede itself")
        preds[after].add(before)
    # Cycle check via Kahn's algorithm.
    remaining = {name: set(p) for name, p in preds.items()}
    done: list[str] = []
    ready = [n for n, p in remaining.items() if not p]
    while ready:
        node = ready.pop()
        done.append(node)
        for other, p in remaining.items():
            if node in p:
                p.discard(node)
                if not p:
                    ready.append(other)
    if len(done) != len(names):
        cyclic = sorted(set(names) - set(done))
        raise PrecedenceError(f"cyclic precedence among {cyclic}")
    return preds


def _power_ok(
    placed: Sequence[Segment],
    start: int,
    end: int,
    power: float,
    budget: float,
) -> bool:
    """Would adding (start, end, power) keep the profile within budget?"""
    if power > budget:
        return False
    events: list[tuple[int, float]] = []
    for iv in placed:
        lo = max(start, iv.start)
        hi = min(end, iv.end)
        if lo < hi:
            events.append((lo, iv.power))
            events.append((hi, -iv.power))
    events.sort()
    level = power
    for _, delta in events:
        level += delta
        if level > budget + 1e-9:
            return False
    return True


def _feasible_windows(
    segments: Sequence[Segment],
    tam: int,
    ready: int,
    power: float,
    budget: float | None,
    horizon: int,
) -> list[tuple[int, int]]:
    """Windows >= ready where TAM ``tam`` is free and power admits ``power``.

    ``horizon`` is a time past every existing segment, so the last
    window always ends *exactly* at ``horizon``: every segment ends at
    or before ``horizon - 1``, which makes the final sweep interval
    TAM-free, and the caller pre-checks that ``power`` alone fits the
    budget.  Callers rely on that trailing window as the place where a
    test can always run to completion (the schedule simply grows past
    the horizon).
    """
    # Candidate boundaries: every segment start/end plus `ready`.
    points = {ready, horizon}
    for segment in segments:
        if segment.end > ready:
            points.add(max(ready, segment.start))
            points.add(segment.end)
    ordered = sorted(points)

    def ok(t0: int, t1: int) -> bool:
        for segment in segments:
            if segment.tam == tam and segment.start < t1 and t0 < segment.end:
                return False
        if budget is not None:
            level = power
            for segment in segments:
                if segment.start < t1 and t0 < segment.end:
                    level += segment.power
            if level > budget + 1e-9:
                return False
        return True

    windows: list[tuple[int, int]] = []
    for t0, t1 in zip(ordered, ordered[1:]):
        if t1 <= t0:
            continue
        if ok(t0, t1):
            if windows and windows[-1][1] == t0:
                windows[-1] = (windows[-1][0], t1)
            else:
                windows.append((t0, t1))
    assert windows and windows[-1][1] == horizon, (
        "feasible-window sweep must end with a window closing at the "
        f"horizon; got {windows} for horizon {horizon}"
    )
    return windows


def _place_contiguous(
    placed: Sequence[Segment],
    tam_free: Sequence[int],
    tam: int,
    ready: int,
    duration: int,
    power: float,
    budget: float | None,
) -> _Pieces | None:
    """One piece after the TAM's last test, as early as power admits."""
    earliest = max(ready, tam_free[tam])
    if budget is None:
        return [(earliest, earliest + duration)]
    candidates = sorted(
        {earliest} | {iv.end for iv in placed if iv.end > earliest}
    )
    for start in candidates:
        if _power_ok(placed, start, start + duration, power, budget):
            return [(start, start + duration)]
    return None  # unreachable: past every placed end the profile is empty


def _place_piecewise(
    placed: Sequence[Segment],
    tam_free: Sequence[int],
    tam: int,
    ready: int,
    duration: int,
    power: float,
    budget: float | None,
    *,
    max_segments: int,
) -> _Pieces | None:
    """Up to ``max_segments`` pieces in the earliest feasible windows.

    Pieces may fill gaps before the TAM's last test, so ``tam_free``
    goes unused: the windows themselves are TAM-free.
    """
    horizon = max((s.end for s in placed), default=0) + 1
    windows = _feasible_windows(placed, tam, ready, power, budget, horizon)
    pieces: _Pieces = []
    remaining = duration
    for w_index, (t0, t1) in enumerate(windows):
        is_last_window = w_index == len(windows) - 1
        if len(pieces) == max_segments - 1 or is_last_window:
            # Final allowed piece: must run to completion, so it needs
            # an open-ended window or one long enough.
            if is_last_window or t1 - t0 >= remaining:
                return pieces + [(t0, t0 + remaining)]
            continue
        take = min(remaining, t1 - t0)
        if take < MIN_SEGMENT:
            continue
        pieces.append((t0, t0 + take))
        remaining -= take
        if remaining == 0:
            return pieces
    return None


def _list_schedule(
    core_names: Sequence[str],
    widths: Sequence[int],
    time_of: TimeTable | TimeFn,
    *,
    power_of: PowerMap | None,
    power_budget: float | None,
    precedence: Sequence[tuple[str, str]],
    max_segments: int | None = None,
) -> ConstrainedSchedule:
    """The longest-first list loop both schedulers share.

    ``max_segments`` of ``None`` places each core in one piece after
    its TAM's last test; a number places it piecewise.
    """
    if not widths:
        raise ValueError("at least one TAM is required")
    if any(w < 1 for w in widths):
        raise ValueError(f"TAM widths must be >= 1, got {tuple(widths)}")
    if max_segments is not None and max_segments < 1:
        raise ValueError(f"max_segments must be >= 1, got {max_segments}")
    if len(set(core_names)) != len(core_names):
        duplicates = sorted({n for n in core_names if core_names.count(n) > 1})
        raise ValueError(f"duplicate core names: {duplicates}")
    preds = _check_precedence(core_names, precedence)
    table = as_table(core_names, time_of)
    powers = core_powers(core_names, power_of)
    if power_budget is not None:
        for name, power in zip(core_names, powers):
            if power > power_budget:
                raise ValueError(
                    f"core {name!r} alone exceeds the power budget "
                    f"({power:.2f} > {power_budget:.2f})"
                )

    place: Callable[..., _Pieces | None] = (
        _place_contiguous
        if max_segments is None
        else partial(_place_piecewise, max_segments=max_segments)
    )
    rows = [table.row(width) for width in widths]
    # The longest-first key never changes, so sort once; each step
    # places the first unplaced core whose predecessors are all placed.
    order = table.order(max(widths))
    placed: list[Segment] = []
    tam_free = [0] * len(widths)  # end of each TAM's last placed test
    finished: dict[str, int] = {}
    while len(finished) < len(order):
        index = next(
            i
            for i in order
            if core_names[i] not in finished
            and preds[core_names[i]] <= finished.keys()
        )
        name = core_names[index]
        ready_at = max((finished[p] for p in preds[name]), default=0)
        core_power = powers[index]
        best: _Pieces | None = None
        best_tam = -1
        for tam, row in enumerate(rows):
            pieces = place(
                placed, tam_free, tam, ready_at, row[index],
                core_power, power_budget,
            )
            # Earliest finish, ties broken by TAM index -- the same
            # effective order the paper scheduler uses, so the
            # no-constraints case reduces to it exactly (breaking ties
            # by start instead diverged on equal-finish candidates and
            # could end with a worse makespan; found by fuzzing).
            if pieces is not None and (
                best is None or pieces[-1][1] < best[-1][1]
            ):
                best, best_tam = pieces, tam
        if best is None:
            raise ValueError(f"no feasible placement for core {name!r}")
        placed += [
            Segment(name, best_tam, start, end, core_power, piece)
            for piece, (start, end) in enumerate(best)
        ]
        finished[name] = tam_free[best_tam] = best[-1][1]

    steps = power_steps((s.start, s.end, s.power) for s in placed)
    return ConstrainedSchedule(
        widths=tuple(widths),
        segments=tuple(placed),
        makespan=max((s.end for s in placed), default=0),
        # Never below the idle level, even if zero-length tests at one
        # time sum to a rounding error under it.
        peak_power=max(0.0, max(level for _, level in steps)),
    )


def schedule_constrained(
    core_names: Sequence[str],
    widths: Sequence[int],
    time_of: TimeTable | TimeFn,
    *,
    power_of: PowerMap | None = None,
    power_budget: float | None = None,
    precedence: Sequence[tuple[str, str]] = (),
) -> ConstrainedSchedule:
    """Longest-first list scheduling with power and precedence constraints.

    Raises :class:`PrecedenceError` for malformed precedence and
    ``ValueError`` for duplicate core names, for a power map that
    leaves out a core (:func:`core_powers`), and when a single core's
    power already exceeds the budget (no schedule exists under the flat
    model).
    """
    return _list_schedule(
        core_names,
        widths,
        time_of,
        power_of=power_of,
        power_budget=power_budget,
        precedence=precedence,
    )


def schedule_preemptive(
    core_names: Sequence[str],
    widths: Sequence[int],
    time_of: TimeTable | TimeFn,
    *,
    power_of: PowerMap | None = None,
    power_budget: float | None = None,
    precedence: Sequence[tuple[str, str]] = (),
    max_segments: int = 3,
) -> ConstrainedSchedule:
    """Constrained list scheduling with bounded preemption.

    Each core may split into at most ``max_segments`` contiguous pieces;
    the last piece always runs to completion.  Raises as
    :func:`schedule_constrained` does, and ``ValueError`` when
    ``max_segments`` is below 1.
    """
    return _list_schedule(
        core_names,
        widths,
        time_of,
        power_of=power_of,
        power_budget=power_budget,
        precedence=precedence,
        max_segments=max_segments,
    )


def constrained_architecture(
    soc_name: str,
    schedule: ConstrainedSchedule,
    config_of: ConfigFn,
    *,
    placement: DecompressorPlacement,
    ate_channels: int,
) -> TestArchitecture:
    """Materialize a non-preemptive schedule as a :class:`TestArchitecture`."""
    tams = tuple(Tam(index=i, width=w) for i, w in enumerate(schedule.widths))
    scheduled = []
    for segment in schedule.segments:
        config = config_of(segment.name, schedule.widths[segment.tam])
        scheduled.append(
            ScheduledCore(
                config=config,
                tam_index=segment.tam,
                start=segment.start,
                end=segment.end,
            )
        )
    return TestArchitecture(
        soc_name=soc_name,
        placement=placement,
        tams=tams,
        scheduled=tuple(scheduled),
        ate_channels=ate_channels,
    )
