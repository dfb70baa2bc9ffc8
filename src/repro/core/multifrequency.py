"""Multi-frequency TAM design (extension; the paper's ref [12]).

Xu & Nicolici's multi-frequency TAM formulation lets each TAM run at
its own scan clock: a narrow TAM clocked faster delivers the same
bandwidth as a wide slow one, and cores with relaxed scan-frequency
limits can trade wires for clock rate.  The tester-side constraint is
*bandwidth*: the sum over TAMs of ``width x frequency_ratio`` may not
exceed the ATE's channel bandwidth (channels x base rate).

Model here:

* a TAM is a pair ``(width, ratio)`` with ``ratio`` from a small set of
  integer multipliers of the ATE base clock (1x, 2x, 4x);
* a core tested on a TAM of width ``w`` at ratio ``r`` finishes in
  ``ceil(tau(w) / r)`` ATE-clock cycles, provided its scan logic admits
  the frequency (``freq_limit``), otherwise the TAM is unusable for it;
* the search enumerates bandwidth partitions and, per part, every
  (width, ratio) factorization; scheduling is the paper's longest-first
  list heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.partition import partitions_list
from repro.core.scheduler import TimeFn

DEFAULT_RATIOS: tuple[int, ...] = (1, 2, 4)

#: Sentinel duration for (core, TAM) pairs the core's frequency limit
#: forbids; large enough to lose every comparison without overflowing.
_FORBIDDEN = 1 << 60


@dataclass(frozen=True)
class FrequencyTam:
    """One TAM of the multi-frequency architecture."""

    width: int
    ratio: int

    @property
    def bandwidth(self) -> int:
        return self.width * self.ratio


@dataclass(frozen=True)
class MultiFrequencyPlan:
    """Best multi-frequency architecture found for a bandwidth budget."""

    bandwidth: int
    tams: tuple[FrequencyTam, ...]
    assignment: tuple[int, ...]  # per core (input order), TAM index
    makespan: int
    configurations_evaluated: int

    @property
    def total_wires(self) -> int:
        return sum(t.width for t in self.tams)


def _tam_options(part: int, ratios: Sequence[int]) -> list[FrequencyTam]:
    options = []
    for ratio in ratios:
        if ratio >= 1 and part % ratio == 0 and part // ratio >= 1:
            options.append(FrequencyTam(width=part // ratio, ratio=ratio))
    return options


def optimize_multifrequency(
    core_names: Sequence[str],
    bandwidth: int,
    time_of: TimeFn,
    *,
    ratios: Sequence[int] = DEFAULT_RATIOS,
    freq_limit: Mapping[str, int] | None = None,
    max_tams: int | None = None,
) -> MultiFrequencyPlan:
    """Search (width, ratio) TAM sets within an ATE bandwidth budget.

    ``time_of(name, width)`` gives the core's scan-clock test time at a
    TAM width; ``freq_limit[name]`` (default: unlimited) caps the clock
    ratio the core's scan chains tolerate.
    """
    if not core_names:
        raise ValueError("cannot plan zero cores")
    if bandwidth < 1:
        raise ValueError(f"bandwidth must be >= 1, got {bandwidth}")
    if any(r < 1 for r in ratios):
        raise ValueError(f"clock ratios must be >= 1, got {tuple(ratios)}")
    limits = dict(freq_limit or {})
    if max_tams is None:
        max_tams = min(len(core_names), 4)

    def duration(name: str, tam: FrequencyTam) -> int:
        if limits.get(name) is not None and tam.ratio > limits[name]:
            return _FORBIDDEN
        return -(-time_of(name, tam.width) // tam.ratio)

    best: MultiFrequencyPlan | None = None
    evaluated = 0
    for parts in partitions_list(bandwidth, max_tams, 1):
        # Per part, every (width, ratio) factorization; combinations
        # across parts multiply, so walk them recursively.
        per_part_options = [_tam_options(part, ratios) for part in parts]

        def walk(index: int, chosen: list[FrequencyTam]) -> None:
            nonlocal best, evaluated
            if index == len(per_part_options):
                evaluated += 1
                plan = _schedule(core_names, tuple(chosen), duration)
                if plan is None:
                    return
                wires = sum(t.width for t in plan.tams)
                # Prefer faster plans; at equal speed, fewer on-chip
                # wires (the whole point of fast narrow TAMs).
                if best is None or (plan.makespan, wires) < (
                    best.makespan,
                    best.total_wires,
                ):
                    best = MultiFrequencyPlan(
                        bandwidth=bandwidth,
                        tams=plan.tams,
                        assignment=plan.assignment,
                        makespan=plan.makespan,
                        configurations_evaluated=0,
                    )
                return
            for option in per_part_options[index]:
                # Canonical order within equal parts avoids duplicates.
                if (
                    chosen
                    and parts[index] == parts[index - 1]
                    and option.ratio < chosen[-1].ratio
                ):
                    continue
                chosen.append(option)
                walk(index + 1, chosen)
                chosen.pop()

        walk(0, [])
    if best is None:
        raise ValueError("no feasible multi-frequency architecture")
    return MultiFrequencyPlan(
        bandwidth=best.bandwidth,
        tams=best.tams,
        assignment=best.assignment,
        makespan=best.makespan,
        configurations_evaluated=evaluated,
    )


@dataclass(frozen=True)
class _Scheduled:
    tams: tuple[FrequencyTam, ...]
    assignment: tuple[int, ...]
    makespan: int


def _schedule(core_names, tams, duration) -> _Scheduled | None:
    """Longest-first list scheduling over heterogeneous TAMs."""
    order = sorted(
        range(len(core_names)),
        key=lambda i: (
            -min(duration(core_names[i], t) for t in tams),
            core_names[i],
        ),
    )
    loads = [0] * len(tams)
    assignment = [-1] * len(core_names)
    for index in order:
        name = core_names[index]
        best_key = None
        best_tam = -1
        for t, tam in enumerate(tams):
            d = duration(name, tam)
            if d >= _FORBIDDEN:
                continue
            key = (loads[t] + d, t)
            if best_key is None or key < best_key:
                best_key = key
                best_tam = t
        if best_tam < 0:
            return None  # some core fits no TAM (frequency limits)
        assignment[index] = best_tam
        loads[best_tam] += duration(name, tams[best_tam])
    return _Scheduled(
        tams=tams, assignment=tuple(assignment), makespan=max(loads)
    )
