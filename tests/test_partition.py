"""Unit tests for partition enumeration and the architecture search."""

import gc
import tracemalloc

import pytest

from repro.core.partition import (
    AUTO_PARTITION_LIMIT,
    count_partitions,
    partitions_list,
)
from repro.search import run_search


class TestIterPartitions:
    """Enumeration of the partition space (:func:`partitions_list`)."""

    def test_single_tam_first(self):
        assert partitions_list(7, 3)[0] == (7,)

    def test_known_enumeration(self):
        got = set(partitions_list(5, 2))
        assert got == {(5,), (4, 1), (3, 2)}

    def test_min_width_respected(self):
        got = set(partitions_list(7, 3, min_width=2))
        assert got == {(7,), (5, 2), (4, 3), (3, 2, 2)}

    def test_parts_non_increasing(self):
        for widths in partitions_list(12, 4):
            assert all(a >= b for a, b in zip(widths, widths[1:]))

    def test_sums_correct(self):
        for widths in partitions_list(12, 4, min_width=2):
            assert sum(widths) == 12

    def test_max_parts_respected(self):
        for widths in partitions_list(10, 3):
            assert len(widths) <= 3

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            partitions_list(0, 1)
        with pytest.raises(ValueError):
            partitions_list(4, 0)
        with pytest.raises(ValueError):
            partitions_list(4, 2, min_width=0)

    @pytest.mark.parametrize(
        "total,parts,min_width", [(10, 3, 1), (16, 4, 2), (24, 6, 1), (9, 9, 1)]
    )
    def test_count_matches_enumeration(self, total, parts, min_width):
        enumerated = len(partitions_list(total, parts, min_width))
        assert count_partitions(total, parts, min_width) == enumerated

    def test_no_duplicates(self):
        partitions = partitions_list(15, 5)
        assert len(partitions) == len(set(partitions))

    def test_count_is_memoized(self):
        count_partitions(97, 5, 2)
        hits = count_partitions.cache_info().hits
        assert count_partitions(97, 5, 2) == len(partitions_list(97, 5, 2))
        # Once for the call above, once inside partitions_list.
        assert count_partitions.cache_info().hits == hits + 2

    def test_count_rejects_what_enumeration_rejects(self):
        for args in ((0, 1, 1), (4, 0, 1), (4, 2, 0)):
            with pytest.raises(ValueError):
                count_partitions(*args)

    def test_long_lists_are_not_kept(self):
        """Lists past AUTO_PARTITION_LIMIT are not memoized.

        W=80 with six parts is 69,624 tuples, about 6 MiB that a memo
        would keep after the caller dropped them.
        """
        assert count_partitions(80, 6) > AUTO_PARTITION_LIMIT
        partitions_list(80, 5)  # below the limit: memoized, not measured
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert len(partitions_list(80, 6)) == count_partitions(80, 6)
            gc.collect()
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert after - before <= 2**20, after - before

    def test_short_lists_are_memoized(self):
        assert partitions_list(24, 6) is partitions_list(24, 6)

    def test_count_matches_enumeration_on_full_grid(self):
        # The closed-form counter and the enumeration must agree
        # everywhere, including degenerate corners (min_width > total,
        # a single part, max_parts far beyond what fits).
        for total in range(1, 13):
            for max_parts in range(1, 7):
                for min_width in range(1, 4):
                    enumerated = partitions_list(total, max_parts, min_width)
                    assert len(enumerated) == len(set(enumerated))
                    assert count_partitions(
                        total, max_parts, min_width
                    ) == len(enumerated), (total, max_parts, min_width)


class TestSearchPartitions:
    @staticmethod
    def divisible_work(work):
        return lambda name, width: -(-work[name] // width)

    def test_exhaustive_finds_optimum(self):
        # Two heavy cores, width 4: both the serial full-width plan and
        # the (2, 2) parallel plan reach 50; nothing beats it.
        work = {"a": 100, "b": 100}
        result = run_search(
            ["a", "b"], 4, self.divisible_work(work), strategy="exhaustive"
        )
        assert result.makespan == 50

    def test_single_core_prefers_full_width(self):
        work = {"a": 100}
        result = run_search(
            ["a"], 8, self.divisible_work(work), strategy="exhaustive"
        )
        assert result.widths == (8,)
        assert result.makespan == 13  # ceil(100/8)

    def test_greedy_improves_on_single_tam(self):
        work = {c: 60 for c in "abcdef"}
        single = run_search(
            list(work), 6, self.divisible_work(work), max_parts=1
        )
        greedy = run_search(
            list(work), 6, self.divisible_work(work), strategy="greedy"
        )
        assert greedy.makespan <= single.makespan

    def test_greedy_not_far_from_exhaustive(self):
        work = {"a": 120, "b": 80, "c": 60, "d": 20}
        exact = run_search(
            list(work), 8, self.divisible_work(work), strategy="exhaustive"
        )
        greedy = run_search(
            list(work), 8, self.divisible_work(work), strategy="greedy"
        )
        assert greedy.makespan <= exact.makespan * 1.5

    def test_auto_picks_exhaustive_for_small(self):
        work = {"a": 10, "b": 10}
        result = run_search(["a", "b"], 6, self.divisible_work(work))
        assert result.strategy == "exhaustive"

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            run_search(["a"], 4, lambda n, w: 1, strategy="magic")

    def test_no_cores_rejected(self):
        with pytest.raises(ValueError):
            run_search([], 4, lambda n, w: 1)

    def test_min_width_larger_than_budget_rejected(self):
        with pytest.raises(ValueError):
            run_search(["a"], 2, lambda n, w: 1, min_width=3)

    def test_partitions_evaluated_counted(self):
        work = {"a": 10}
        result = run_search(
            ["a"], 5, self.divisible_work(work), strategy="exhaustive", max_parts=2
        )
        assert result.partitions_evaluated == count_partitions(5, 2)
