"""Exact (branch-and-bound) reference for small instances.

The paper's flow is a heuristic because test-architecture optimization
is NP-hard.  For small SOCs an exact optimum is still computable:
enumerate every TAM partition and solve each fixed-partition assignment
problem (minimum-makespan multiprocessor scheduling with
machine-dependent processing times) by depth-first branch-and-bound.

Used by the quality ablation (A5) to measure how far the longest-first
list heuristic lands from the true optimum, and by tests as ground
truth.  Guardrails keep it off industrial-size inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.partition import partitions_list
from repro.core.scheduler import TimeFn

#: Exhaustive assignment is exponential; refuse bigger instances.
MAX_CORES = 12


@dataclass(frozen=True)
class OptimalOutcome:
    """Provably optimal partition + assignment for a width budget."""

    widths: tuple[int, ...]
    assignment: tuple[int, ...]  # per core (input order), TAM index
    makespan: int
    nodes_explored: int


def _optimal_assignment(
    durations: list[list[int]], upper_bound: int
) -> tuple[int, tuple[int, ...] | None, int]:
    """B&B over task->machine assignments.

    ``durations[i][t]`` is task i's time on machine t (tasks pre-sorted
    longest-first for strong early pruning).  Returns (best makespan,
    best assignment or None if nothing beat the bound, nodes explored).
    """
    n = len(durations)
    k = len(durations[0]) if n else 1
    best = upper_bound
    best_assignment: tuple[int, ...] | None = None
    loads = [0] * k
    assignment = [0] * n
    nodes = 0

    # Suffix lower bound: each remaining task needs at least its fastest
    # machine time; spreading perfectly cannot beat total/k growth.
    suffix_min = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_min[i] = suffix_min[i + 1] + min(durations[i])

    # Machines with identical duration columns are interchangeable;
    # group them so symmetric subtrees are explored once.
    column_class: list[int] = []
    for t in range(k):
        column = [durations[i][t] for i in range(n)]
        for t2 in range(t):
            if [durations[i][t2] for i in range(n)] == column:
                column_class.append(column_class[t2])
                break
        else:
            column_class.append(t)

    def dfs(i: int) -> None:
        nonlocal best, best_assignment, nodes
        nodes += 1
        if i == n:
            span = max(loads)
            if span < best:
                best = span
                best_assignment = tuple(assignment)
            return
        # Bound: even perfect balancing of the remaining fastest times
        # cannot push the busiest machine below this.
        bound = max(max(loads), (sum(loads) + suffix_min[i]) // k)
        if bound >= best:
            return
        seen: set[tuple[int, int]] = set()
        for t in range(k):
            key = (column_class[t], loads[t])
            if key in seen:
                continue  # symmetric to an explored branch
            seen.add(key)
            if loads[t] + durations[i][t] >= best:
                continue
            loads[t] += durations[i][t]
            assignment[i] = t
            dfs(i + 1)
            loads[t] -= durations[i][t]

    dfs(0)
    return best, best_assignment, nodes


def optimal_schedule(
    core_names: Sequence[str],
    total_width: int,
    time_of: TimeFn,
    *,
    max_parts: int | None = None,
    min_width: int = 1,
) -> OptimalOutcome:
    """Provably minimal makespan over partitions x assignments.

    Complexity is exponential in the core count; inputs beyond
    ``MAX_CORES`` cores are rejected.
    """
    n = len(core_names)
    if n == 0:
        raise ValueError("cannot schedule zero cores")
    if n > MAX_CORES:
        raise ValueError(
            f"exact search supports at most {MAX_CORES} cores, got {n}"
        )
    if max_parts is None:
        max_parts = min(n, 4)

    order = sorted(
        range(n), key=lambda i: -time_of(core_names[i], total_width)
    )

    best_span = None
    best_widths: tuple[int, ...] | None = None
    best_assignment: tuple[int, ...] | None = None
    total_nodes = 0
    for widths in partitions_list(total_width, max_parts, min_width):
        durations = [
            [time_of(core_names[i], w) for w in widths] for i in order
        ]
        bound = best_span if best_span is not None else 1 << 62
        span, assignment, nodes = _optimal_assignment(durations, bound)
        total_nodes += nodes
        if assignment is not None and (best_span is None or span < best_span):
            best_span = span
            best_widths = widths
            remapped = [0] * n
            for pos, tam in enumerate(assignment):
                remapped[order[pos]] = tam
            best_assignment = tuple(remapped)

    assert best_span is not None and best_widths and best_assignment is not None
    return OptimalOutcome(
        widths=best_widths,
        assignment=best_assignment,
        makespan=best_span,
        nodes_explored=total_nodes,
    )
