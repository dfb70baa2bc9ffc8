"""Test scheduling (the paper's step 4).

Given a TAM partition (a list of widths) and, per core, a test time at
every width, the paper schedules with a longest-task-first list
heuristic: sort the cores by test time, longest first, then assign each
core to the TAM where the SOC test time grows the least.  Complexity is
O(n k) lookups for n cores and k TAMs.

Cores on a TAM are tested serially; TAMs run in parallel; the SOC test
time is the largest TAM finish time (the makespan).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro import obs
from repro.core.architecture import (
    CoreConfig,
    DecompressorPlacement,
    ScheduledCore,
    Tam,
    TestArchitecture,
)

#: ``time_of(core_name, tam_width) -> test time`` lookup used while
#: scheduling; the optimizer backs it with the DSE lookup tables.
TimeFn = Callable[[str, int], int]

#: ``config_of(core_name, tam_width) -> CoreConfig`` resolves the full
#: per-core configuration once the assignment is fixed.
ConfigFn = Callable[[str, int], CoreConfig]


@dataclass(frozen=True)
class ScheduleOutcome:
    """Result of scheduling one partition."""

    widths: tuple[int, ...]
    makespan: int
    assignment: tuple[int, ...]  # per core (input order), the TAM index


def schedule_cores(
    core_names: Sequence[str],
    widths: Sequence[int],
    time_of: TimeFn,
) -> ScheduleOutcome:
    """Assign cores to TAMs with the paper's list heuristic.

    Cores are sorted by their test time on the *widest* TAM (their best
    case), longest first, then greedily placed where the resulting
    makespan is smallest; ties prefer the TAM that finishes earliest,
    then the lowest TAM index, keeping the result deterministic.
    Callers that schedule many partitions over the same cores should
    keep one :class:`TimeTable` and call :func:`schedule_cores_indexed`.
    """
    return schedule_cores_indexed(TimeTable(core_names, time_of), widths)


class TimeTable:
    """Dense, position-indexed memo over a ``time_of`` callback.

    The partition search schedules tens of thousands of partitions over
    the same handful of cores and widths; going through the generic
    ``time_of(name, width)`` callback per (core, TAM) step would pay a
    call millions of times.  This table resolves each width to a plain
    row of ints (indexed by core position) once, and memoizes the
    longest-first core order per widest width -- the only two lookups
    the inner loop needs.
    """

    def __init__(self, core_names: Sequence[str], time_of: TimeFn) -> None:
        self.core_names = list(core_names)
        self._time_of = time_of
        self._rows: dict[int, list[int]] = {}
        self._orders: dict[int, list[int]] = {}

    def row(self, width: int) -> list[int]:
        """Test time of every core (input order) at ``width``."""
        row = self._rows.get(width)
        if row is None:
            row = [self._time_of(name, width) for name in self.core_names]
            self._rows[width] = row
        return row

    def order(self, widest: int) -> list[int]:
        """Longest-first core order at ``widest`` (ties by name)."""
        order = self._orders.get(widest)
        if order is None:
            row = self.row(widest)
            names = self.core_names
            order = sorted(range(len(names)), key=lambda i: (-row[i], names[i]))
            self._orders[widest] = order
        return order


def schedule_cores_indexed(
    table: TimeTable, widths: Sequence[int]
) -> ScheduleOutcome:
    """The list heuristic of :func:`schedule_cores` over a :class:`TimeTable`.

    Every lookup is a list index; the scalar loop it replaced is kept
    in the test suite as the reference that pins its ordering and
    tie-breaks.
    """
    if not widths:
        raise ValueError("at least one TAM is required")
    if any(w < 1 for w in widths):
        raise ValueError(f"TAM widths must be >= 1, got {tuple(widths)}")

    order = table.order(max(widths))
    rows = [table.row(w) for w in widths]
    num_tams = len(widths)
    loads = [0] * num_tams
    assignment = [-1] * len(table.core_names)
    for index in order:
        current_makespan = max(loads)
        best_tam = -1
        best_key: tuple[int, int, int] | None = None
        for tam in range(num_tams):
            finish = loads[tam] + rows[tam][index]
            key = (max(current_makespan, finish), finish, tam)
            if best_key is None or key < best_key:
                best_key = key
                best_tam = tam
        assignment[index] = best_tam
        loads[best_tam] += rows[best_tam][index]

    return ScheduleOutcome(
        widths=tuple(widths),
        makespan=max(loads),
        assignment=tuple(assignment),
    )


def schedule_makespans_batch(
    table: TimeTable, partitions: Sequence[tuple[int, ...]]
) -> np.ndarray:
    """Makespan of every partition, vectorized across partitions.

    Returns an int64 array aligned with ``partitions``, equal to
    ``[schedule_cores_indexed(table, p).makespan for p in partitions]``
    (pinned by the differential suite).  The list heuristic is
    sequential over cores but embarrassingly parallel over partitions:
    grouping the partitions by (TAM count, widest width) makes every
    partition in a group place its cores in the *same* order, so the
    greedy placement advances core by core in lockstep over a
    ``(partitions, tams)`` load matrix.

    Per core the lexicographic key ``(makespan, finish, tam)`` is
    minimized in two passes -- mask to the minimum makespan, then take
    the first minimum finish -- because ``argmin`` resolving ties to the
    first position is exactly the lowest-TAM tie-break.
    """
    makespans = np.zeros(len(partitions), dtype=np.int64)
    groups: dict[tuple[int, int], list[int]] = {}
    for position, widths in enumerate(partitions):
        if not widths:
            raise ValueError("at least one TAM is required")
        if any(w < 1 for w in widths):
            raise ValueError(f"TAM widths must be >= 1, got {tuple(widths)}")
        groups.setdefault((len(widths), max(widths)), []).append(position)

    with obs.span("kernel.schedule-batch", partitions=len(partitions)):
        _schedule_groups(table, partitions, groups, makespans)
    return makespans


def _schedule_groups(
    table: TimeTable,
    partitions: Sequence[tuple[int, ...]],
    groups: dict[tuple[int, int], list[int]],
    makespans: np.ndarray,
) -> None:
    sentinel = np.iinfo(np.int64).max
    for (num_tams, widest), positions in groups.items():
        widths_arr = np.array(
            [partitions[p] for p in positions], dtype=np.int64
        )
        unique_widths = np.unique(widths_arr)
        # (cores, unique widths) time matrix; resolving the rows up
        # front also triggers any lazy fills behind ``time_of`` once.
        time_mat = np.array(
            [table.row(int(w)) for w in unique_widths], dtype=np.int64
        ).T
        width_idx = np.searchsorted(unique_widths, widths_arr)

        count = len(positions)
        loads = np.zeros((count, num_tams), dtype=np.int64)
        current = np.zeros(count, dtype=np.int64)
        rows = np.arange(count)
        for core in table.order(widest):
            finish = loads + time_mat[core][width_idx]
            span = np.maximum(current[:, None], finish)
            span_min = span.min(axis=1, keepdims=True)
            masked = np.where(span == span_min, finish, sentinel)
            best = np.argmin(masked, axis=1)
            chosen = finish[rows, best]
            loads[rows, best] = chosen
            current = np.maximum(current, chosen)
        makespans[positions] = loads.max(axis=1)


def build_architecture(
    soc_name: str,
    core_names: Sequence[str],
    outcome: ScheduleOutcome,
    config_of: ConfigFn,
    *,
    placement: DecompressorPlacement,
    ate_channels: int,
    time_of: TimeFn | None = None,
) -> TestArchitecture:
    """Materialize a :class:`TestArchitecture` from a schedule outcome.

    Start times are laid out serially per TAM in the same
    longest-first order the scheduler used, so the architecture passes
    its own overlap validation and the makespan is preserved.

    ``time_of`` should be the same lookup the scheduler ordered by.
    The scheduler sorted cores by ``time_of(name, widest)``; reordering
    here by ``config_of(name, widest).test_time`` instead is only safe
    when the two agree at the widest width.  When a caller's
    ``config_of`` disagrees (a resolver that picks a different codec
    or wrapper at materialization time), the divergent order would
    shuffle start times away from the ``ScheduleOutcome`` and the
    materialized makespan could differ from ``outcome.makespan`` --
    so pass ``time_of`` whenever it is available; the ``config_of``
    fallback exists for callers that genuinely have only configs.
    """
    widths = outcome.widths
    tams = tuple(Tam(index=i, width=w) for i, w in enumerate(widths))

    # Recreate the scheduling order to lay out serial slots per TAM.
    widest = max(widths)
    if time_of is not None:
        widest_time = time_of
    else:
        def widest_time(name: str, width: int) -> int:
            return config_of(name, width).test_time

    order = sorted(
        range(len(core_names)),
        key=lambda i: (
            -widest_time(core_names[i], widest),
            core_names[i],
        ),
    )
    loads = [0] * len(widths)
    scheduled: list[ScheduledCore] = []
    for index in order:
        name = core_names[index]
        tam = outcome.assignment[index]
        config = config_of(name, widths[tam])
        start = loads[tam]
        end = start + config.test_time
        loads[tam] = end
        scheduled.append(
            ScheduledCore(config=config, tam_index=tam, start=start, end=end)
        )

    arch = TestArchitecture(
        soc_name=soc_name,
        placement=placement,
        tams=tams,
        scheduled=tuple(scheduled),
        ate_channels=ate_channels,
    )
    return arch
