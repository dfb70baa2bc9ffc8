"""The neighborhood moves of the joint (partition, assignment) space.

Four moves, drawn uniformly, exactly as the original annealer did:

========  =========  ====================================================
index     name       effect
========  =========  ====================================================
0         reassign   move one core to a (possibly the same) random TAM
1         shift      move one wire from a donor TAM to a taker TAM
2         split      split one TAM in two, rehoming its cores coin-flip
3         merge      merge two TAMs (cores follow, indices compact)
========  =========  ====================================================

A proposal is *invalid* (returns ``None``) when the drawn move cannot
apply: the guard on the move index fails, shift drew ``donor == taker``
or a donor at ``min_width``, split drew a TAM too narrow to split, or
merge drew ``a == b``.

The RNG draw order in here is **load-bearing**: the golden
fingerprints pin the annealer bit for bit, and that only holds if
every ``rng.integers`` / ``rng.random`` call happens in the same
sequence -- including the short-circuit in split, where the coin flip
is drawn only for cores currently homed on the split TAM.  Do not
reorder draws.
"""

from __future__ import annotations

import numpy as np

#: Move index -> name, for labels and study-store records.
MOVE_NAMES = ("reassign", "shift", "split", "merge")


def propose_move(
    rng: np.random.Generator,
    widths: list[int],
    assignment: list[int],
    *,
    max_parts: int,
    min_width: int,
) -> tuple[list[int], list[int]] | None:
    """Draw one move and apply it, or return ``None`` if invalid.

    ``widths`` / ``assignment`` are never mutated; a valid proposal
    returns fresh lists.
    """
    move = int(rng.integers(0, 4))
    n = len(assignment)
    new_widths = list(widths)
    new_assignment = list(assignment)
    if move == 0 and len(new_widths) > 1:
        index = int(rng.integers(0, n))
        new_assignment[index] = int(rng.integers(0, len(new_widths)))
    elif move == 1 and len(new_widths) > 1:
        donor = int(rng.integers(0, len(new_widths)))
        taker = int(rng.integers(0, len(new_widths)))
        if donor == taker or new_widths[donor] <= min_width:
            return None
        new_widths[donor] -= 1
        new_widths[taker] += 1
    elif move == 2 and len(new_widths) < max_parts:
        victim = int(rng.integers(0, len(new_widths)))
        if new_widths[victim] < 2 * min_width:
            return None
        half = int(rng.integers(min_width, new_widths[victim] - min_width + 1))
        new_widths[victim] -= half
        new_widths.append(half)
        fresh = len(new_widths) - 1
        for index in range(n):
            if new_assignment[index] == victim and rng.random() < 0.5:
                new_assignment[index] = fresh
    elif move == 3 and len(new_widths) > 1:
        a = int(rng.integers(0, len(new_widths)))
        b = int(rng.integers(0, len(new_widths)))
        if a == b:
            return None
        a, b = min(a, b), max(a, b)
        new_widths[a] += new_widths[b]
        del new_widths[b]
        for index in range(n):
            if new_assignment[index] == b:
                new_assignment[index] = a
            elif new_assignment[index] > b:
                new_assignment[index] -= 1
    else:
        return None
    return new_widths, new_assignment
