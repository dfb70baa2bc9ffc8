"""The one evaluation funnel every search backend shares.

An :class:`Evaluator` wraps the scheduling kernels (the indexed and
batched list schedulers over a
:class:`~repro.core.scheduler.TimeTable`) behind a small API the
backends drive:

* :meth:`schedule` -- list-schedule a partition (memoized on the width
  vector; a memo hit still counts as an evaluation so the historical
  ``partitions_evaluated`` numbers stay bit-identical);
* :meth:`batch_makespans` -- the vectorized many-partitions kernel;
* :meth:`makespan_of` -- cost of an explicit (widths, assignment)
  state, the joint-space evaluation the annealer and the evolutionary
  searcher need;
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
    schedule_cores_indexed,
    schedule_makespans_batch,
)
from repro.search.state import SearchState

#: ``volume_of(core_name, tam_width) -> test data volume`` (bits).
VolumeFn = Callable[[str, int], int]

#: ``power_of(core_name) -> flat test power`` (arbitrary units).
PowerFn = Callable[[str], float]

#: Memoized schedule outcomes kept per evaluator before a wholesale
#: reset; one entry per *distinct* width vector, so only a pathological
#: backend ever reaches it.
MEMO_MAX_ENTRIES = 1 << 17


class Evaluator:
    """Memoized, counting evaluation of search states for one SOC."""

    def __init__(
        self,
        core_names: Sequence[str],
        time_of: TimeFn,
        *,
        volume_of: VolumeFn | None = None,
        power_of: PowerFn | None = None,
    ) -> None:
        self.core_names = list(core_names)
        self.time_of = time_of
        self.volume_of = volume_of
        self.power_of = power_of
        self.table = TimeTable(self.core_names, time_of)
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
        """List-schedule one partition (memoized, fast-path lookups)."""
        key = tuple(widths)
        self._count(1)
        outcome = self._memo.get(key)
        if outcome is None:
            outcome = schedule_cores_indexed(self.table, key)
            self._remember(key, outcome)
        self._track(outcome)
        return outcome

    def batch_makespans(
        self, partitions: Sequence[tuple[int, ...]]
    ) -> np.ndarray:
        """Vectorized makespans of many partitions (one evaluation each)."""
        self._count(len(partitions))
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
        """Makespan of an explicit joint state (no list heuristic)."""
        self._count(1)
        loads = [0] * len(widths)
        for index, tam in enumerate(assignment):
            loads[tam] += self.table.row(widths[tam])[index]
        makespan = max(loads) if loads else 0
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
          TAM's width (0 when no ``volume_of`` is wired);
        * *peak power* -- an upper-bound proxy: cores on one TAM run
          serially, TAMs in parallel, so the instantaneous peak never
          exceeds the sum over TAMs of the largest member power (0
          when no ``power_of`` is wired).  The exact sweep-line peak
          needs a materialized schedule; the proxy is monotone enough
          to steer a population.
        """
        makespan = self.makespan_of(state.widths, state.assignment)
        volume = 0
        if self.volume_of is not None:
            volume = sum(
                self.volume_of(name, state.widths[tam])
                for name, tam in zip(self.core_names, state.assignment)
            )
        power = 0.0
        if self.power_of is not None:
            per_tam = [0.0] * len(state.widths)
            for name, tam in zip(self.core_names, state.assignment):
                per_tam[tam] = max(per_tam[tam], self.power_of(name))
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
