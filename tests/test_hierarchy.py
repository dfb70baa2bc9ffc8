"""Tests for hierarchical SOC planning."""

import pytest

import repro
from repro.soc.core import Core
from repro.soc.hierarchy import ChildSocCore, optimize_hierarchical
from repro.soc.soc import Soc


def _leaf(name: str, chains: int, seed: int, density: float = 0.04) -> Core:
    return Core(
        name=name,
        inputs=6,
        outputs=6,
        scan_chain_lengths=(25,) * chains,
        patterns=30,
        care_bit_density=density,
        one_fraction=0.3,
        seed=seed,
    )


@pytest.fixture
def child_soc() -> Soc:
    return Soc(
        name="childA",
        cores=(_leaf("a1", 8, 1), _leaf("a2", 12, 2), _leaf("a3", 6, 3)),
    )


class TestChildSocCore:
    def test_envelope_monotone(self, child_soc):
        child = ChildSocCore(child_soc)
        times = [child.test_time(w) for w in (4, 8, 16)]
        assert times[0] >= times[1] >= times[2]

    def test_envelope_cached(self, child_soc):
        child = ChildSocCore(child_soc)
        child.plan_at(8)
        assert 8 in child._envelope

    def test_rejects_zero_width(self, child_soc):
        with pytest.raises(ValueError):
            ChildSocCore(child_soc).plan_at(0)

    def test_volume_positive(self, child_soc):
        assert ChildSocCore(child_soc).volume(8) > 0

    def test_child_mode_validated_by_run_config(self, child_soc):
        with pytest.raises(ValueError, match="unknown compression mode"):
            ChildSocCore(child_soc, compression="bogus").plan_at(8)


class TestOptimizeHierarchical:
    def test_plan_covers_all_members(self, child_soc):
        members = [ChildSocCore(child_soc), _leaf("top1", 10, 9), _leaf("top2", 6, 10)]
        plan = optimize_hierarchical("parent", members, 16)
        names = {s.config.core_name for s in plan.architecture.scheduled}
        assert names == {"childA", "top1", "top2"}
        assert plan.child_names == ("childA",)

    def test_budget_respected(self, child_soc):
        members = [ChildSocCore(child_soc), _leaf("top1", 10, 9)]
        plan = optimize_hierarchical("parent", members, 12)
        assert sum(plan.tam_widths) <= 12

    def test_makespan_consistent(self, child_soc):
        members = [ChildSocCore(child_soc), _leaf("top1", 10, 9)]
        plan = optimize_hierarchical("parent", members, 12)
        assert plan.test_time == plan.architecture.test_time

    def test_child_slot_matches_envelope(self, child_soc):
        child = ChildSocCore(child_soc)
        members = [child, _leaf("top1", 10, 9)]
        plan = optimize_hierarchical("parent", members, 12)
        slot = next(
            s
            for s in plan.architecture.scheduled
            if s.config.core_name == "childA"
        )
        width = {t.index: t.width for t in plan.architecture.tams}[slot.tam_index]
        assert slot.config.test_time == child.test_time(width)

    def test_flat_equals_hierarchy_of_one_level(self, child_soc):
        """Planning the child standalone = its envelope at full width."""
        child = ChildSocCore(child_soc)
        flat = repro.plan(child_soc, 10, repro.RunConfig(compression="per-core"))
        assert child.test_time(10) == flat.test_time

    def test_duplicate_names_rejected(self, child_soc):
        with pytest.raises(ValueError, match="duplicate"):
            optimize_hierarchical(
                "p", [ChildSocCore(child_soc), _leaf("childA", 4, 5)], 8
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            optimize_hierarchical("p", [], 8)

    def test_wider_parent_never_slower(self, child_soc):
        members = [ChildSocCore(child_soc), _leaf("top1", 10, 9)]
        narrow = optimize_hierarchical("p", members, 8)
        wide = optimize_hierarchical("p", members, 16)
        assert wide.test_time <= narrow.test_time

    @pytest.mark.parametrize("mode", ["bogus", "select", "per-tam", True])
    def test_rejects_unsupported_leaf_compression(self, child_soc, mode):
        members = [ChildSocCore(child_soc), _leaf("top1", 10, 9)]
        with pytest.raises(ValueError, match="none, per-core, auto"):
            optimize_hierarchical("p", members, 12, compression=mode)

    def test_no_compression_mode(self, child_soc):
        members = [
            ChildSocCore(child_soc, compression="none"),
            _leaf("top1", 10, 9),
        ]
        plan = optimize_hierarchical("p", members, 12, compression="none")
        for slot in plan.architecture.scheduled:
            if slot.config.core_name != "childA":
                assert not slot.config.uses_compression
