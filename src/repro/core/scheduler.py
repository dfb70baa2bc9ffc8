"""Test scheduling (the paper's step 4).

Given a TAM partition (a list of widths) and, per core, a test time at
every width, the paper schedules with a longest-task-first list
heuristic: sort the cores by test time, longest first, then assign each
core to the TAM where the SOC test time grows the least.  Complexity is
O(n k) lookups for n cores and k TAMs.

Cores on a TAM are tested serially; TAMs run in parallel; the SOC test
time is the largest TAM finish time (the makespan).

The makespan after placing a core on a TAM is ``max(makespan,
finish)``, which never decreases as ``finish`` grows, so the TAM that
grows the makespan least is the TAM where the core finishes earliest.
Both schedulers here place each core on its first earliest finish: the
key ``(finish, tam)`` picks the same TAM as the paper's three-part key
``(max(makespan, finish), finish, tam)``, which the scalar reference in
the test suite keeps.
"""

from __future__ import annotations

import itertools
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

#: ``time_of(core_name, tam_width) -> test time``: a cost table as a
#: callback, which the public schedulers wrap into a :class:`TimeTable`.
TimeFn = Callable[[str, int], int]

#: ``config_of(core_name, tam_width) -> CoreConfig`` resolves the full
#: per-core configuration once the assignment is fixed.
ConfigFn = Callable[[str, int], CoreConfig]

#: ``row_of(tam_width) -> [value of every core]`` fills one table row.
RowFn = Callable[[int], list[int]]


@dataclass(frozen=True)
class ScheduleOutcome:
    """Result of scheduling one partition."""

    widths: tuple[int, ...]
    makespan: int
    assignment: tuple[int, ...]  # per core (input order), the TAM index


def schedule_cores(
    core_names: Sequence[str],
    widths: Sequence[int],
    time_of: TimeTable | TimeFn,
) -> ScheduleOutcome:
    """Assign cores to TAMs with the paper's list heuristic.

    Cores are sorted by their test time on the *widest* TAM (their best
    case), longest first, then greedily placed where the resulting
    makespan is smallest, which is the TAM where the core finishes
    earliest; ties prefer the lowest TAM index, keeping the result
    deterministic.
    Callers that schedule many partitions over the same cores should
    keep one :class:`TimeTable` and call :func:`schedule_cores_indexed`.
    """
    return schedule_cores_indexed(as_table(core_names, time_of), widths)


class TimeTable:
    """A plan's cost table: one value per core at every TAM width.

    Steps 1-2 of the paper give each core a test time at every width;
    steps 3-4 only read them, through this table: a row of ints per
    width (indexed by core position), filled on its first read, and the
    memoized longest-first core order per widest width.  The pipeline's
    tables fill whole rows from their own data (:meth:`from_rows`);
    ``TimeTable(names, time_of)`` wraps a per-(core, width) callback.
    """

    def __init__(self, core_names: Sequence[str], time_of: TimeFn) -> None:
        names = list(core_names)
        self._start(names, lambda width: [time_of(name, width) for name in names])

    @classmethod
    def from_rows(cls, core_names: Sequence[str], row_of: RowFn) -> TimeTable:
        """The table whose row at a width is ``row_of(width)``, read once."""
        table = cls.__new__(cls)
        table._start(list(core_names), row_of)
        return table

    def _start(self, core_names: list[str], row_of: RowFn) -> None:
        self.core_names = core_names
        self._row_of = row_of
        self._rows: dict[int, list[int]] = {}
        self._orders: dict[int, list[int]] = {}

    def row(self, width: int) -> list[int]:
        """Value of every core (input order) at ``width``."""
        row = self._rows.get(width)
        if row is None:
            row = self._rows[width] = self._row_of(width)
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


def tam_loads(
    table: TimeTable, widths: Sequence[int], assignment: Sequence[int]
) -> list[int]:
    """Each TAM's summed table value over its cores (``assignment[i]``)."""
    rows = [table.row(width) for width in widths]
    loads = [0] * len(widths)
    for index, tam in enumerate(assignment):
        loads[tam] += rows[tam][index]
    return loads


def as_table(core_names: Sequence[str], times: TimeTable | TimeFn) -> TimeTable:
    """``times`` as a table over ``core_names``; a table is shared as it is."""
    if not isinstance(times, TimeTable):
        return TimeTable(core_names, times)
    if times.core_names != list(core_names):
        raise ValueError("the cost table lists other cores, or in another order")
    return times


def schedule_cores_indexed(
    table: TimeTable, widths: Sequence[int]
) -> ScheduleOutcome:
    """The list heuristic of :func:`schedule_cores` over a :class:`TimeTable`.

    Every lookup is a list index.  Each core goes to its first
    earliest-finishing TAM (see the module docstring); the scalar loop
    this replaced is kept in the test suite as the reference that pins
    its ordering and tie-breaks.
    """
    if not widths:
        raise ValueError("at least one TAM is required")
    if any(w < 1 for w in widths):
        raise ValueError(f"TAM widths must be >= 1, got {tuple(widths)}")

    order = table.order(max(widths))
    rows = [table.row(w) for w in widths]
    loads = [0] * len(widths)
    assignment = [-1] * len(table.core_names)
    for index in order:
        best_tam = 0
        best_finish = loads[0] + rows[0][index]
        for tam in range(1, len(widths)):
            finish = loads[tam] + rows[tam][index]
            if finish < best_finish:
                best_finish = finish
                best_tam = tam
        assignment[index] = best_tam
        loads[best_tam] = best_finish

    return ScheduleOutcome(
        widths=tuple(widths),
        makespan=max(loads),
        assignment=tuple(assignment),
    )


#: Partitions one pass of :func:`schedule_makespans_batch` advances
#: together.  It bounds the kernel's transient memory, a few
#: ``(partitions, tams)`` and ``(cores, partitions)`` arrays, whatever
#: the number of partitions.
_CHUNK = 4096


def schedule_makespans_batch(
    table: TimeTable, partitions: Sequence[tuple[int, ...]]
) -> np.ndarray:
    """Makespan of every partition, vectorized across partitions.

    Returns an int64 array aligned with ``partitions``, equal to
    ``[schedule_cores_indexed(table, p).makespan for p in partitions]``
    (pinned by the differential suite).  The list heuristic is
    sequential over cores but embarrassingly parallel over partitions.
    Partitions with the same TAM count share the shape of a
    ``(partitions, tams)`` load matrix, so each such group advances one
    placement step at a time in lockstep, in chunks of at most
    ``_CHUNK`` partitions.  Every partition carries its own
    longest-first core order (:meth:`TimeTable.order` at its widest
    TAM) as a row of core indices, so step ``s`` places each
    partition's ``s``-th core.  The core goes to the first minimum of
    its finish times, which ``argmin`` gives directly: ties resolve to
    the lowest TAM index, as in :func:`schedule_cores_indexed`.

    Raises the :func:`schedule_cores_indexed` ``ValueError`` of the
    first partition that has no TAM or a width below 1.
    """
    count = len(partitions)
    # TAM count of every partition, and every TAM width, partition after
    # partition.  Widths are wire counts: int32 halves the largest array.
    tams = np.fromiter(map(len, partitions), dtype=np.int64, count=count)
    widths = np.fromiter(
        itertools.chain.from_iterable(partitions),
        dtype=np.int32,
        count=int(tams.sum()),
    )
    _check_partitions(partitions, tams, widths)

    makespans = np.zeros(count, dtype=np.int64)
    with obs.span("kernel.schedule-batch", partitions=count):
        if count and table.core_names:
            _schedule_groups(table, tams, widths, makespans)
    return makespans


def _check_partitions(
    partitions: Sequence[tuple[int, ...]],
    tams: np.ndarray,
    widths: np.ndarray,
) -> None:
    """Raise for the first partition with no TAM or a width below 1."""
    empty = np.flatnonzero(tams == 0)
    first = int(empty[0]) if empty.size else len(partitions)
    narrow = np.flatnonzero(widths < 1)
    if narrow.size:
        # The first cumulative TAM count past a flat index names the
        # partition holding it.
        ends = np.cumsum(tams)
        position = int(np.searchsorted(ends, narrow[0], side="right"))
        if position < first:
            raise ValueError(
                f"TAM widths must be >= 1, got {tuple(partitions[position])}"
            )
    if empty.size:
        raise ValueError("at least one TAM is required")


def _schedule_groups(
    table: TimeTable,
    tams: np.ndarray,
    widths: np.ndarray,
    makespans: np.ndarray,
) -> None:
    starts = np.cumsum(tams)
    starts -= tams
    # One time row per width in use, flattened: the time of core ``c``
    # at width ``w`` sits at ``offset_of[w] + c``.
    used, rank_of = _dense_ranks(widths)
    offset_of = rank_of * len(table.core_names)
    times = np.array(
        [table.row(w) for w in used.tolist()], dtype=np.int64
    ).ravel()
    # The longest-first order of every widest width in use.
    widest = np.maximum.reduceat(widths, starts)
    widest_used, order_of = _dense_ranks(widest)
    orders = np.array(
        [table.order(w) for w in widest_used.tolist()], dtype=np.int32
    )
    for num_tams in np.flatnonzero(np.bincount(tams)).tolist():
        offsets = np.arange(num_tams)
        members = np.flatnonzero(tams == num_tams)
        for low in range(0, members.size, _CHUNK):
            chunk = members[low : low + _CHUNK]
            size = chunk.size
            # (partitions, tams) offsets into ``times``; (cores,
            # partitions) core index placed at each step.
            base = offset_of.take(widths.take(starts[chunk, None] + offsets))
            steps = orders.take(order_of.take(widest.take(chunk)), axis=0).T
            loads = np.zeros((size, num_tams), dtype=np.int64)
            flat_loads = loads.reshape(-1)
            row_starts = np.arange(size) * num_tams
            for cores in steps:
                finish = loads + times.take(base + cores[:, None])
                # Flat index of each partition's first earliest finish.
                best = finish.argmin(axis=1)
                best += row_starts
                flat_loads[best] = finish.reshape(-1).take(best)
            makespans[chunk] = loads.max(axis=1)


def _dense_ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``values`` ascending, and a value -> rank array.

    ``values`` are TAM widths, small non-negative ints, so a dense map
    indexed by value is cheaper than sorting them.
    """
    used = np.flatnonzero(np.bincount(values))
    rank_of = np.zeros(int(used[-1]) + 1, dtype=np.int64)
    rank_of[used] = np.arange(used.size)
    return used, rank_of


def build_architecture(
    soc_name: str,
    core_names: Sequence[str],
    outcome: ScheduleOutcome,
    config_of: ConfigFn,
    *,
    placement: DecompressorPlacement,
    ate_channels: int,
    time_of: TimeTable | TimeFn,
) -> TestArchitecture:
    """Materialize a :class:`TestArchitecture` from a schedule outcome.

    Start times are laid out serially per TAM in the same
    longest-first order the scheduler used, so the architecture passes
    its own overlap validation and the makespan is preserved.
    ``time_of`` is the cost table (or callback) the scheduler ordered
    by; ``config_of`` is read once per core, at its TAM's width.
    """
    widths = outcome.widths
    tams = tuple(Tam(index=i, width=w) for i, w in enumerate(widths))

    # Recreate the scheduling order to lay out serial slots per TAM.
    order = as_table(core_names, time_of).order(max(widths))
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
