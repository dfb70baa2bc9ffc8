"""The one evaluation funnel every search backend shares.

An :class:`Evaluator` wraps the scheduling kernels (the indexed and
batched list schedulers over a
:class:`~repro.core.scheduler.TimeTable`) behind a small API the
backends drive:

* :meth:`schedule` -- schedule a partition under the ``schedule``
  objective, the paper's list heuristic unless the caller passes
  another (memoized on the width vector; a memo hit still counts as an
  evaluation so the historical ``partitions_evaluated`` numbers stay
  bit-identical);
* :meth:`batch_makespans` -- the vectorized many-partitions kernel, or
  the custom objective partition by partition;
* :meth:`makespan_of` -- cost of an explicit (widths, assignment)
  state, the joint-space evaluation the annealer and the evolutionary
  searcher need (refused under a custom objective, which it would
  bypass);
* :meth:`objectives` -- the multi-objective fitness
  ``(makespan, data volume, peak-power proxy)`` when volume/power
  lookups are wired in (they are optional; without them the extra
  objectives are 0 and fitness degenerates to makespan).

It also owns the bookkeeping every backend used to reimplement:
evaluation counting, best-so-far tracking, and the
``search.evaluations`` / ``search.best_makespan`` observability
signals surfaced in :class:`~repro.obs.report.RunReport`.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro import obs
from repro.core.scheduler import (
    ScheduleOutcome,
    TimeFn,
    TimeTable,
    as_table,
    schedule_cores_indexed,
    schedule_makespans_batch,
    tam_loads,
)
from repro.core.timeline import PowerMap, core_powers
from repro.search.state import SearchState

#: ``volume_of(core_name, tam_width) -> test data volume`` (bits).
VolumeFn = Callable[[str, int], int]

#: ``schedule(table, widths) -> outcome``: what one partition costs.
ScheduleFn = Callable[[TimeTable, tuple[int, ...]], ScheduleOutcome]

#: Memoized schedule outcomes kept per evaluator before a wholesale
#: reset; one entry per *distinct* width vector, so only a pathological
#: backend ever reaches it.
MEMO_MAX_ENTRIES = 1 << 17


class Evaluator:
    """Memoized, counting evaluation of search states, read from rows."""

    def __init__(
        self,
        core_names: Sequence[str],
        time_of: TimeTable | TimeFn,
        *,
        volume_of: TimeTable | VolumeFn | None = None,
        power_of: PowerMap | None = None,
        schedule: ScheduleFn | None = None,
    ) -> None:
        self.core_names = names = list(core_names)
        self.table = as_table(names, time_of)
        self.volumes = None if volume_of is None else as_table(names, volume_of)
        self.powers = None if power_of is None else core_powers(names, power_of)
        #: The per-partition schedule; ``None`` is the list heuristic.
        self.objective = schedule
        #: Evaluations performed (memo hits included -- this is the
        #: number the backends report as ``partitions_evaluated``).
        self.evaluations = 0
        #: Distinct schedules actually computed (memo misses).
        self.distinct_schedules = 0
        #: Best schedule seen so far, across every evaluation path.
        self.best: ScheduleOutcome | None = None
        self._memo: dict[tuple[int, ...], ScheduleOutcome] = {}

    # ------------------------------------------------------------------
    # Evaluation paths.
    # ------------------------------------------------------------------

    def schedule(self, widths: Sequence[int]) -> ScheduleOutcome:
        """Schedule one partition under the objective (memoized)."""
        key = tuple(widths)
        self._count(1)
        outcome = self._memo.get(key)
        if outcome is None:
            if self.objective is None:
                outcome = schedule_cores_indexed(self.table, key)
            else:
                outcome = self.objective(self.table, key)
            self._remember(key, outcome)
        self._track(outcome)
        return outcome

    def batch_makespans(
        self, partitions: Sequence[tuple[int, ...]]
    ) -> np.ndarray:
        """Makespans of many partitions (one evaluation each).

        A custom objective runs partition by partition, unmemoized; the
        first minimum becomes the best-so-far outcome either way.
        """
        self._count(len(partitions))
        if self.objective is not None:
            makespans = np.empty(len(partitions), dtype=np.int64)
            for index, widths in enumerate(partitions):
                outcome = self.objective(self.table, widths)
                makespans[index] = outcome.makespan
                self._track(outcome)
            return makespans
        makespans = schedule_makespans_batch(self.table, partitions)
        if len(partitions):
            winner = int(np.argmin(makespans))
            self._track(
                schedule_cores_indexed(self.table, partitions[winner])
            )
        return makespans

    def makespan_of(
        self, widths: Sequence[int], assignment: Sequence[int]
    ) -> int:
        """Makespan of an explicit joint state (no list heuristic).

        Refused under a custom ``schedule`` objective: an explicit
        assignment would go around it.
        """
        if self.objective is not None:
            raise ValueError(
                "this search costs each partition by its schedule "
                "objective, which an explicit core assignment would "
                "bypass; search it with a strategy that schedules whole "
                "partitions (auto, exhaustive, greedy)"
            )
        self._count(1)
        makespan = max(tam_loads(self.table, widths, assignment), default=0)
        self._track(
            ScheduleOutcome(
                widths=tuple(widths),
                makespan=makespan,
                assignment=tuple(assignment),
            )
        )
        return makespan

    def objectives(self, state: SearchState) -> tuple[int, int, float]:
        """Multi-objective fitness ``(makespan, volume, peak power)``.

        * *makespan* -- the joint-state cost (:meth:`makespan_of`);
        * *volume* -- total test data streamed, summed per core at its
          TAM's width from the volume rows (0 when no ``volume_of`` is
          wired);
        * *peak power* -- an upper-bound proxy: cores on one TAM run
          serially, TAMs in parallel, so the instantaneous peak never
          exceeds the sum over TAMs of the largest member power (0
          when no ``power_of`` is wired).  The exact sweep-line peak
          needs a materialized schedule; the proxy is monotone enough
          to steer a population.
        """
        makespan = self.makespan_of(state.widths, state.assignment)
        volume = 0
        if self.volumes is not None:
            volume = sum(tam_loads(self.volumes, state.widths, state.assignment))
        power = 0.0
        if self.powers is not None:
            per_tam = [0.0] * len(state.widths)
            for core_power, tam in zip(self.powers, state.assignment):
                per_tam[tam] = max(per_tam[tam], core_power)
            power = sum(per_tam)
        return makespan, volume, power

    # ------------------------------------------------------------------
    # Bookkeeping.
    # ------------------------------------------------------------------

    def _count(self, n: int) -> None:
        self.evaluations += n
        obs.inc("search.evaluations", n)

    def _remember(
        self, key: tuple[int, ...], outcome: ScheduleOutcome
    ) -> None:
        self.distinct_schedules += 1
        if len(self._memo) >= MEMO_MAX_ENTRIES:
            self._memo.clear()
        self._memo[key] = outcome

    def _track(self, outcome: ScheduleOutcome) -> None:
        if self.best is None or outcome.makespan < self.best.makespan:
            self.best = outcome
            obs.set_gauge("search.best_makespan", outcome.makespan)

    @property
    def best_makespan(self) -> int | None:
        return None if self.best is None else self.best.makespan
