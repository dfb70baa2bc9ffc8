"""TAM partition enumeration.

This module owns the *enumeration* of the partition space (the paper's
step 3 domain): :func:`iter_partitions`, its materialized/memoized twin
:func:`partitions_list`, and :func:`count_partitions` with the
``AUTO_PARTITION_LIMIT`` that decides when "auto" stops enumerating.

The *search strategies* over that space are registered backends of
:mod:`repro.search`; :func:`repro.search.run_search` is their front
door.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from repro.search.state import PartitionSearchResult

__all__ = [
    "AUTO_PARTITION_LIMIT",
    "PartitionSearchResult",
    "count_partitions",
    "iter_partitions",
    "partitions_list",
]

#: "auto" switches from exhaustive to greedy above this many partitions.
AUTO_PARTITION_LIMIT = 60_000


def iter_partitions(
    total: int, max_parts: int, min_width: int = 1
) -> Iterator[tuple[int, ...]]:
    """Yield integer partitions of ``total`` (non-increasing parts).

    Every part is at least ``min_width``; at most ``max_parts`` parts.
    Whenever ``total >= min_width`` the full-width single TAM ``(total,)``
    is yielded first; otherwise nothing is yielded.
    """
    if total < 1:
        raise ValueError(f"total width must be >= 1, got {total}")
    if max_parts < 1:
        raise ValueError(f"max_parts must be >= 1, got {max_parts}")
    if min_width < 1:
        raise ValueError(f"min_width must be >= 1, got {min_width}")

    def recurse(
        remaining: int, cap: int, parts_left: int, prefix: list[int]
    ) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield tuple(prefix)
            return
        if parts_left == 0 or remaining < min_width:
            return
        # Largest part first keeps the non-increasing invariant; the part
        # must leave room for the rest to be >= min_width each.
        for part in range(min(cap, remaining), min_width - 1, -1):
            rest = remaining - part
            if rest and (parts_left - 1 == 0 or rest < min_width):
                continue
            prefix.append(part)
            yield from recurse(rest, part, parts_left - 1, prefix)
            prefix.pop()

    yield from recurse(total, total, max_parts, [])


@lru_cache(maxsize=64)
def partitions_list(
    total: int, max_parts: int, min_width: int = 1
) -> tuple[tuple[int, ...], ...]:
    """Materialized (and memoized) :func:`iter_partitions`.

    Equal to ``tuple(iter_partitions(total, max_parts, min_width))``
    element for element (pinned by the differential suite) but built
    with a direct append recursion: resuming a ``yield from`` chain
    per partition costs more than every schedule the partition feeds.
    Only the exhaustive strategy calls this, so the memo stays below
    ``AUTO_PARTITION_LIMIT`` tuples per entry.
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
    """Number of partitions :func:`iter_partitions` would yield."""
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
