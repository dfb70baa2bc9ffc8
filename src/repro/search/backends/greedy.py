"""Greedy backend: split/shift/merge around the bottleneck TAM.

The historical greedy search, pinned by the golden fingerprints: start
from the single full-width TAM, find the TAM that finishes last, try
splitting it, pulling a wire from every possible donor, and merging the
two narrowest TAMs; take the first strict improvement and repeat.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.core.scheduler import ScheduleOutcome, tam_loads
from repro.search.evaluator import Evaluator
from repro.search.state import PartitionSearchResult, SearchSpace


def greedy_moves(
    widths: list[int], bottleneck: int, min_width: int
) -> list[list[int]]:
    """Candidate width vectors one greedy step away from ``widths``."""
    candidates: list[list[int]] = []
    w = widths[bottleneck]
    if w >= 2 * min_width:
        half = w // 2
        split = widths[:bottleneck] + widths[bottleneck + 1 :] + [w - half, half]
        candidates.append(split)
    for donor in range(len(widths)):
        if donor == bottleneck or widths[donor] <= min_width:
            continue
        shifted = list(widths)
        shifted[donor] -= 1
        shifted[bottleneck] += 1
        candidates.append(shifted)
    if len(widths) >= 2:
        order = sorted(range(len(widths)), key=lambda i: widths[i])
        a, b = order[0], order[1]
        merged = [w for i, w in enumerate(widths) if i not in (a, b)]
        merged.append(widths[a] + widths[b])
        candidates.append(merged)
    return candidates


def bottleneck_tam(evaluator: Evaluator, outcome: ScheduleOutcome) -> int:
    """The TAM with the largest summed test time (first on ties)."""
    loads = tam_loads(evaluator.table, outcome.widths, outcome.assignment)
    return max(range(len(loads)), key=lambda i: loads[i])


class GreedyBackend:
    name = "greedy"
    hyperparameters: Mapping[str, type] = {}

    def run(
        self, evaluator: Evaluator, space: SearchSpace, **options: Any
    ) -> PartitionSearchResult:
        best = evaluator.schedule(space.single_tam)
        improved = True
        while improved:
            improved = False
            bottleneck = bottleneck_tam(evaluator, best)
            for widths in greedy_moves(
                list(best.widths), bottleneck, space.min_width
            ):
                if len(widths) > space.max_parts or any(
                    w < space.min_width for w in widths
                ):
                    continue
                outcome = evaluator.schedule(sorted(widths, reverse=True))
                if outcome.makespan < best.makespan:
                    best = outcome
                    improved = True
                    break
        return PartitionSearchResult(
            outcome=best,
            partitions_evaluated=evaluator.evaluations,
            strategy=self.name,
        )
