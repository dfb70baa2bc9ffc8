"""Exhaustive backend: schedule every partition, keep the best.

Every partition goes through one call of the batch list scheduler
(:func:`~repro.core.scheduler.schedule_makespans_batch`), which
schedules the partitions of each TAM count together, whatever their
order.  The makespans come back in enumeration order and the first
minimum wins, the tie-break of the scalar loop it replaced (pinned by
the golden fingerprints and the scheduler differential tests).
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.search.evaluator import Evaluator
from repro.search.state import PartitionSearchResult, SearchSpace


class ExhaustiveBackend:
    name = "exhaustive"
    hyperparameters: Mapping[str, type] = {}

    def run(
        self, evaluator: Evaluator, space: SearchSpace, **options: Any
    ) -> PartitionSearchResult:
        from repro.core.partition import partitions_list

        partitions = partitions_list(
            space.total_width, space.max_parts, space.min_width
        )
        # The batch kernel tracks the argmin winner on the evaluator
        # (first minimum -- the historical tie-break).
        evaluator.batch_makespans(partitions)
        best = evaluator.best
        assert best is not None  # (total,) is always enumerated
        return PartitionSearchResult(
            outcome=best,
            partitions_evaluated=evaluator.evaluations,
            strategy=self.name,
        )
