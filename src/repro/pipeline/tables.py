"""The plan's cost tables, built in the decompressor stage.

So the wrapper and decompressor design of the paper's steps 1-2 is
paid -- and timed -- before the search starts; the later stages only
read rows.  :class:`LookupTables` keeps every core's compression-policy
pick (:func:`~repro.explore.selection.choose_row`) at each TAM width
``1..W`` in one dense row, and hands out the picks' test times and
volumes as :class:`~repro.core.scheduler.TimeTable` rows.  A row costs
one batched kernel pass per core over the code widths up to
``min(W, max_code_width)``; plain scan is designed only at the widths
the policy reads (under ``per-core`` below three wires, under
``none``, ``auto`` and ``select`` at every width, in one BFD pass).
:class:`SharedWidthTables` holds the ``per-tam`` flow's rows instead.
"""

from __future__ import annotations

import bisect
from typing import Sequence

from repro.core.architecture import CoreConfig
from repro.core.scheduler import ScheduleOutcome, TimeTable, schedule_cores_indexed
from repro.explore.dse import CompressedPoint, CoreAnalysis
from repro.explore.selection import Pick, choose_row, core_config
from repro.search.state import SearchSpace


class LookupTables:
    """Per-SOC time/volume/config rows backing the scheduler."""

    def __init__(
        self,
        analyses: dict[str, CoreAnalysis],
        compression: str,
        width_budget: int,
    ) -> None:
        self.width_budget = width_budget
        self._analyses = analyses
        self._rows: dict[str, list[Pick]] = {
            name: choose_row(analysis, width_budget, compression)
            for name, analysis in analyses.items()
        }
        self._configs: dict[tuple[str, int], CoreConfig] = {}
        # The row readers hold the picks, not the tables, so that no
        # reference cycle keeps a plan's tables alive after it.
        picks = list(self._rows.values())

        def column(width: int) -> list[Pick]:
            index = _index(width, width_budget)
            return [row[index] for row in picks]

        #: The rows the search, schedule and packing loops read.
        self.times = TimeTable.from_rows(
            list(analyses), lambda w: [pick.test_time for pick in column(w)]
        )
        self.volumes = TimeTable.from_rows(
            list(analyses), lambda w: [pick.volume for pick in column(w)]
        )

    # ------------------------------------------------------------------

    def time_of(self, name: str, width: int) -> int:
        return self._rows[name][_index(width, self.width_budget)].test_time

    def config_of(self, name: str, width: int) -> CoreConfig:
        """The pick as a :class:`CoreConfig`, built on its first read."""
        config = self._configs.get((name, width))
        if config is None:
            pick = self._rows[name][_index(width, self.width_budget)]
            config = core_config(self._analyses[name].core, pick)
            self._configs[name, width] = config
        return config


def _index(width: int, width_budget: int) -> int:
    """The row index of ``width`` in a table over ``1..width_budget``."""
    if not 1 <= width <= width_budget:
        raise ValueError(f"TAM width {width} outside the table's 1..{width_budget}")
    return width - 1


class SharedWidthTables:
    """Figure 4(b)'s rows: one decompressor, one expanded width per TAM.

    A partition is list-scheduled on each core's best time at its TAM's
    code width (``times``).  Each TAM then shares one expanded width m,
    a member's favourite, and every member is re-costed at it.  The rows
    cover the TAM widths some partition of the search ``space`` uses,
    and every m they can make a TAM share.
    """

    def __init__(self, analyses: dict[str, CoreAnalysis], space: SearchSpace) -> None:
        top, low = space.total_width, space.min_width
        # The full width, and any that leaves a second TAM low wires.
        widths = [*range(low, top - low + 1), top] if space.max_parts > 1 else [top]
        self.cores = [analysis.core for analysis in analyses.values()]
        #: Per core, the wrapper chains it can use; surplus
        #: decompressor outputs of a wider shared m idle.
        self.chains = [core.max_useful_wrapper_chains for core in self.cores]
        # Per core, at each width: the favourite m and the code-width time.
        favourites: list[list[int | None]] = []
        code_times: list[list[int]] = []
        for analysis in analyses.values():
            bests = analysis.best_for_code_widths(widths)
            # Past the core's code widths its fastest code runs instead.
            fit = bests[-1] or analysis.best_compressed_for_tam(widths[-1])
            assert fit is not None  # a code fits every width >= 3
            favourites.append([None if b is None else b.m for b in bests])
            code_times.append([(b or fit).test_time for b in bests])
        self._favourites = dict(zip(widths, zip(*favourites)))
        # The m a TAM can share: a member's favourite, or -- where no
        # member has one -- the smallest useful chain count among them.
        shared = sorted(
            {m or chains for row, chains in zip(favourites, self.chains) for m in row}
        )
        self._points: list[dict[int, CompressedPoint]] = []
        for analysis, chains in zip(analyses.values(), self.chains):
            # Past the core's chain count a shared m runs at that count.
            cut = bisect.bisect_left(shared, chains)
            ms = shared[:cut] + ([chains] if cut < len(shared) else [])
            self._points.append(dict(zip(ms, analysis.sweep_wrapper_chains(ms))))
        rows = dict(zip(widths, map(list, zip(*code_times))))
        self.times = TimeTable.from_rows(list(analyses), rows.__getitem__)

    def point(self, index: int, shared_m: int) -> CompressedPoint:
        """Core ``index``'s design point when its TAM expands to ``shared_m``."""
        return self._points[index][min(shared_m, self.chains[index])]

    def shared_ms(
        self, widths: Sequence[int], assignment: Sequence[int]
    ) -> tuple[list[int], list[int]]:
        """Each TAM's shared m and its members' summed time at it.

        An empty TAM gets m = 1 and load 0.  Otherwise the m is the
        members' favourite (or, when none has one, their smallest useful
        chain count) with the least summed time.
        """
        shared: list[int] = []
        loads: list[int] = []
        for tam, width in enumerate(widths):
            members = [i for i, t in enumerate(assignment) if t == tam]
            if not members:
                shared.append(1)
                loads.append(0)
                continue
            favourites = self._favourites[width]
            candidates = {
                m for m in (favourites[i] for i in members) if m is not None
            } or {min(self.chains[i] for i in members)}
            # The least load, the smallest m on a tie.
            load, m = min(
                (sum(self.point(i, m).test_time for i in members), m)
                for m in candidates
            )
            shared.append(m)
            loads.append(load)
        return shared, loads

    def schedule(
        self, table: TimeTable, widths: tuple[int, ...]
    ) -> ScheduleOutcome:
        """The search objective: list schedule, then the shared-m re-cost."""
        outcome = schedule_cores_indexed(table, widths)
        _, loads = self.shared_ms(widths, outcome.assignment)
        return ScheduleOutcome(outcome.widths, max(loads), outcome.assignment)
