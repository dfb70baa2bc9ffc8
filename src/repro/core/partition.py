"""TAM partition enumeration.

This module owns the *enumeration* of the partition space (the paper's
step 3 domain): :func:`partitions_list`, and :func:`count_partitions`
with the ``AUTO_PARTITION_LIMIT`` that decides when "auto" stops
enumerating.

The *search strategies* over that space are registered backends of
:mod:`repro.search`; :func:`repro.search.run_search` is their front
door.
"""

from __future__ import annotations

from functools import lru_cache

from repro.search.state import PartitionSearchResult

__all__ = [
    "AUTO_PARTITION_LIMIT",
    "PartitionSearchResult",
    "count_partitions",
    "partitions_list",
]

#: "auto" switches from exhaustive to greedy above this many partitions.
AUTO_PARTITION_LIMIT = 60_000


@lru_cache(maxsize=64)
def partitions_list(
    total: int, max_parts: int, min_width: int = 1
) -> tuple[tuple[int, ...], ...]:
    """Integer partitions of ``total`` (non-increasing parts), memoized.

    Every part is at least ``min_width``; at most ``max_parts`` parts.
    Whenever ``total >= min_width`` the full-width single TAM
    ``(total,)`` comes first; otherwise the tuple is empty.  Built with
    a direct append recursion: resuming a generator chain per partition
    costs more than every schedule the partition feeds.

    The exhaustive strategy calls this below ``AUTO_PARTITION_LIMIT``,
    but the constrained and per-TAM stages call it with no such limit,
    so one entry can be large: W=128 with six parts holds 587,535
    tuples, about 58 MiB.
    """
    if total < 1:
        raise ValueError(f"total width must be >= 1, got {total}")
    if max_parts < 1:
        raise ValueError(f"max_parts must be >= 1, got {max_parts}")
    if min_width < 1:
        raise ValueError(f"min_width must be >= 1, got {min_width}")

    out: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def recurse(remaining: int, cap: int, parts_left: int) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if parts_left == 0 or remaining < min_width:
            return
        for part in range(min(cap, remaining), min_width - 1, -1):
            rest = remaining - part
            if rest and (parts_left - 1 == 0 or rest < min_width):
                continue
            prefix.append(part)
            recurse(rest, part, parts_left - 1)
            prefix.pop()

    recurse(total, total, max_parts)
    return tuple(out)


def count_partitions(total: int, max_parts: int, min_width: int = 1) -> int:
    """Number of partitions :func:`partitions_list` would return."""
    # Dynamic program over (remaining, cap expressed as part sizes).
    # Small enough inputs that a dict-memoized recursion is fine.
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def count(remaining: int, cap: int, parts_left: int) -> int:
        if remaining == 0:
            return 1
        if parts_left == 0 or remaining < min_width:
            return 0
        return sum(
            count(remaining - part, part, parts_left - 1)
            for part in range(min(cap, remaining), min_width - 1, -1)
            if not (
                remaining - part
                and (parts_left - 1 == 0 or remaining - part < min_width)
            )
        )

    return count(total, total, max_parts)
