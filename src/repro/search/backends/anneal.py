"""Simulated-annealing backend over the joint (partition, assignment) space.

Behaviorally the historical annealer with exactly one intentional
change, shipped as its own fix: the temperature now cools **once per
iteration**.  The historical loop hit ``continue`` on
invalid moves *before* ``temperature *= cooling``, so the effective
cooling schedule depended on the move-validity rate -- more invalid
draws meant a hotter, longer exploration phase than the ``cooling``
knob promised.  Everything else -- RNG draw order, move semantics,
acceptance rule, canonicalization -- is unchanged, and the golden
fingerprints (``tests/golden_plans.json``, ``searches`` and the
anneal plans) pin this backend bit for bit.

Proposals (iterations attempted) and evaluations (valid proposals
actually costed) are counted separately: ``search.proposals`` vs.
``search.evaluations`` in obs, with ``partitions_evaluated`` keeping
its historical meaning of 1 + valid proposals.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from repro import obs
from repro.search.evaluator import Evaluator
from repro.search.moves import propose_move
from repro.search.state import PartitionSearchResult, SearchSpace, SearchState

#: Iterations are chunked into this many traced temperature epochs.
EPOCHS = 10


class AnnealBackend:
    name = "anneal"
    hyperparameters: Mapping[str, type] = {
        "iterations": int,
        "initial_temperature": float,
        "cooling": float,
        "seed": int,
    }

    def run(
        self,
        evaluator: Evaluator,
        space: SearchSpace,
        *,
        iterations: int = 4000,
        initial_temperature: float | None = None,
        cooling: float = 0.999,
        seed: int = 0,
    ) -> PartitionSearchResult:
        if iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {iterations}")
        if not 0.0 < cooling < 1.0:
            raise ValueError(f"cooling must be in (0, 1), got {cooling}")

        rng = np.random.default_rng(seed)
        widths: list[int] = [space.total_width]
        assignment: list[int] = [0] * len(evaluator.core_names)
        current = evaluator.makespan_of(widths, assignment)
        best = current
        best_state = (list(widths), list(assignment))
        if initial_temperature is None:
            initial_temperature = max(1.0, 0.2 * current)
        temperature = float(initial_temperature)
        proposals = 0

        epoch_len = max(1, -(-iterations // EPOCHS))
        for start in range(0, iterations, epoch_len):
            stop = min(start + epoch_len, iterations)
            with obs.span(
                "search.epoch",
                backend=self.name,
                epoch=start // epoch_len,
                temperature=temperature,
            ) as attrs:
                for _ in range(start, stop):
                    proposals += 1
                    proposal = propose_move(
                        rng,
                        widths,
                        assignment,
                        max_parts=space.max_parts,
                        min_width=space.min_width,
                    )
                    if proposal is not None:
                        new_widths, new_assignment = proposal
                        candidate = evaluator.makespan_of(
                            new_widths, new_assignment
                        )
                        delta = candidate - current
                        if delta <= 0 or rng.random() < math.exp(
                            -delta / max(1e-9, temperature)
                        ):
                            widths, assignment, current = (
                                new_widths,
                                new_assignment,
                                candidate,
                            )
                            if current < best:
                                best = current
                                best_state = (list(widths), list(assignment))
                    temperature *= cooling
                attrs["best_makespan"] = best
                attrs["proposals"] = proposals
                attrs["evaluations"] = evaluator.evaluations

        obs.inc("search.proposals", proposals)
        best_widths, best_assignment = best_state
        outcome = SearchState(
            widths=tuple(best_widths), assignment=tuple(best_assignment)
        ).canonical().outcome(best)
        return PartitionSearchResult(
            outcome=outcome,
            partitions_evaluated=evaluator.evaluations,
            strategy=self.name,
        )
