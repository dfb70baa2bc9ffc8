"""Greedy test-set truncation under an ATE memory-depth constraint.

Given a planned architecture whose schedule does not fit the tester's
per-channel vector memory (depth = schedule cycles, one bit per channel
per cycle), repeatedly shave patterns from the core where a cycle of
schedule relief costs the least coverage, until the plan fits.

Model choices (documented simplifications):

* per-core test time scales linearly with its pattern count (exactly
  true in expectation for the i.i.d. cube model: codewords and shift
  cycles are per-pattern);
* the TAM partition and core-to-TAM assignment stay fixed (truncation
  is a late, post-layout decision; the wires are already routed);
* only cores on the *current bottleneck TAM* are candidates each step
  (shaving elsewhere cannot shorten the schedule).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.pipeline.result import PlanResult
from repro.quality.coverage import CoverageModel, soc_quality
from repro.soc.soc import Soc


@dataclass(frozen=True)
class TruncationResult:
    """Outcome of truncating a plan to a memory depth."""

    pattern_counts: dict[str, int]
    makespan: int
    quality: float
    full_quality: float
    iterations: int
    fits: bool

    @property
    def quality_loss(self) -> float:
        return self.full_quality - self.quality


def truncate_for_depth(
    soc: Soc,
    plan: PlanResult,
    depth: int,
    *,
    models: Mapping[str, CoverageModel] | None = None,
    min_fraction: float = 0.1,
    step_fraction: float = 0.02,
) -> TruncationResult:
    """Shrink per-core pattern counts until the plan fits ``depth``.

    ``min_fraction`` floors every core's test set (shipping a core with
    almost no patterns is not a test); ``step_fraction`` is the granule
    of each greedy step relative to the full count.  Returns with
    ``fits=False`` when the floor is reached before the depth.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if not 0.0 < min_fraction <= 1.0:
        raise ValueError("min_fraction must be in (0, 1]")
    if not 0.0 < step_fraction <= 1.0:
        raise ValueError("step_fraction must be in (0, 1]")
    if models is None:
        models = {c.name: CoverageModel.for_core(c) for c in soc}

    # Per-core: which TAM, full time, full patterns.
    slots = {s.config.core_name: s for s in plan.architecture.scheduled}
    full_time = {name: slot.config.test_time for name, slot in slots.items()}
    tam_of = {name: slot.tam_index for name, slot in slots.items()}
    full_patterns = {c.name: c.patterns for c in soc}
    floor = {
        name: max(1, int(round(min_fraction * full_patterns[name])))
        for name in full_patterns
    }
    step = {
        name: max(1, int(round(step_fraction * full_patterns[name])))
        for name in full_patterns
    }
    counts = dict(full_patterns)
    full_quality = soc_quality(soc, counts, models=models)

    def time_of(name: str) -> int:
        # Ceiling division: a truncated test still occupies whole
        # cycles, so scaled times must round *up*.  Rounding to nearest
        # let a plan "fit" a depth its integer schedule exceeds (e.g.
        # a 41.4-cycle load reported as makespan 41 against depth 41).
        return -(-full_time[name] * counts[name] // full_patterns[name])

    def loads() -> dict[int, int]:
        out: dict[int, int] = {t.index: 0 for t in plan.architecture.tams}
        for name in counts:
            out[tam_of[name]] += time_of(name)
        return out

    iterations = 0
    while True:
        tam_loads = loads()
        makespan = max(tam_loads.values())
        if makespan <= depth:
            break
        bottleneck = max(tam_loads, key=lambda t: tam_loads[t])
        candidates = [
            name
            for name in counts
            if tam_of[name] == bottleneck and counts[name] > floor[name]
        ]
        if not candidates:
            break  # the bottleneck TAM is already at its floor
        # Cheapest coverage per cycle saved: marginal coverage of the
        # last pattern divided by the per-pattern time.
        def cost_rate(name: str) -> float:
            per_pattern_time = full_time[name] / full_patterns[name]
            return models[name].marginal(counts[name]) / max(
                1e-12, per_pattern_time
            )

        victim = min(candidates, key=cost_rate)
        counts[victim] = max(floor[victim], counts[victim] - step[victim])
        iterations += 1

    final_loads = loads()
    makespan = max(final_loads.values())
    return TruncationResult(
        pattern_counts=counts,
        makespan=makespan,
        quality=soc_quality(soc, counts, models=models),
        full_quality=full_quality,
        iterations=iterations,
        fits=makespan <= depth,
    )
