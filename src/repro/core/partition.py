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


def partitions_list(
    total: int, max_parts: int, min_width: int = 1
) -> tuple[tuple[int, ...], ...]:
    """Integer partitions of ``total`` (non-increasing parts).

    Every part is at least ``min_width``; at most ``max_parts`` parts.
    Whenever ``total >= min_width`` the full-width single TAM
    ``(total,)`` comes first; otherwise the tuple is empty.  Built with
    a direct append recursion: resuming a generator chain per partition
    costs more than every schedule the partition feeds.

    Lists of at most ``AUTO_PARTITION_LIMIT`` partitions, the ones the
    exhaustive search enumerates, are memoized; plans over warm tables
    reuse them.  Longer lists are built afresh on every call: only the
    power-constrained and per-TAM stages, or an explicit exhaustive
    search, ask for them, and each then schedules every partition, so
    enumerating again costs little next to holding one (W=128 with six
    parts is 587,535 tuples, about 58 MiB).
    """
    # count_partitions also validates the arguments.
    if count_partitions(total, max_parts, min_width) > AUTO_PARTITION_LIMIT:
        return _enumerate(total, max_parts, min_width)
    return _enumerate_memoized(total, max_parts, min_width)


def _enumerate(
    total: int, max_parts: int, min_width: int
) -> tuple[tuple[int, ...], ...]:
    """The enumeration behind :func:`partitions_list`, unchecked."""
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


_enumerate_memoized = lru_cache(maxsize=64)(_enumerate)


@lru_cache(maxsize=1024)
def count_partitions(total: int, max_parts: int, min_width: int = 1) -> int:
    """Number of partitions :func:`partitions_list` would return, memoized.

    Taking ``min_width - 1`` off each of ``k`` parts maps the partitions
    into exactly ``k`` parts of at least ``min_width`` one-to-one onto
    the partitions of ``total - k * (min_width - 1)`` into exactly ``k``
    positive parts, whose count ``p(n, k)`` one table holds:
    ``p(n, k) = p(n - 1, k - 1) + p(n - k, k)`` (a partition either
    has a part equal to 1, or every part shrinks by one).
    """
    if total < 1:
        raise ValueError(f"total width must be >= 1, got {total}")
    if max_parts < 1:
        raise ValueError(f"max_parts must be >= 1, got {max_parts}")
    if min_width < 1:
        raise ValueError(f"min_width must be >= 1, got {min_width}")
    parts = min(max_parts, total // min_width)
    # exact[k][n]: partitions of n into exactly k positive parts.
    exact = [[1] + [0] * total] + [[0] * (total + 1) for _ in range(parts)]
    for k in range(1, parts + 1):
        row, fewer = exact[k], exact[k - 1]
        for n in range(k, total + 1):
            row[n] = fewer[n - 1] + row[n - k]
    return sum(exact[k][total - k * (min_width - 1)] for k in range(1, parts + 1))
