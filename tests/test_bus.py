"""Tests for the bus-based test transport planner."""

import pytest

import repro
from repro.core.bus import BusPlan, optimize_bus
from repro.soc.core import Core
from repro.soc.soc import Soc


@pytest.fixture
def bus_soc() -> Soc:
    cores = tuple(
        Core(
            name=f"c{i}",
            inputs=6,
            outputs=6,
            scan_chain_lengths=(25,) * (8 + 4 * i),
            patterns=40 + 10 * i,
            care_bit_density=0.04,
            one_fraction=0.3,
            seed=950 + i,
        )
        for i in range(4)
    )
    return Soc(name="bus4", cores=cores)


class TestOptimizeBus:
    def test_validation(self, bus_soc):
        with pytest.raises(ValueError):
            optimize_bus(bus_soc, 0)
        with pytest.raises(ValueError):
            optimize_bus(Soc(name="empty"), 8)

    def test_bandwidth_respected(self, bus_soc):
        plan = optimize_bus(bus_soc, 12, compression="per-core")
        assert isinstance(plan, BusPlan)
        assert plan.peak_bandwidth <= 12 + 1e-9
        assert all(1 <= r <= 12 for r in plan.rates.values())

    def test_every_core_scheduled(self, bus_soc):
        plan = optimize_bus(bus_soc, 12, compression="per-core")
        scheduled = {iv.name for iv in plan.schedule.intervals}
        assert scheduled == set(bus_soc.core_names)

    def test_above_lower_bound(self, bus_soc):
        plan = optimize_bus(bus_soc, 12, compression="per-core")
        assert plan.test_time >= plan.lower_bound
        assert plan.tightness >= 1.0

    def test_reasonably_tight(self, bus_soc):
        plan = optimize_bus(bus_soc, 12, compression="per-core")
        assert plan.tightness <= 2.0

    def test_wider_bus_never_slower(self, bus_soc):
        narrow = optimize_bus(bus_soc, 8, compression="per-core")
        wide = optimize_bus(bus_soc, 16, compression="per-core")
        assert wide.test_time <= narrow.test_time

    def test_compression_helps_on_bus_too(self, bus_soc):
        plain = optimize_bus(bus_soc, 12, compression="none")
        packed = optimize_bus(bus_soc, 12, compression="per-core")
        assert packed.test_time < plain.test_time

    def test_bus_at_least_matches_dedicated_tams(self, bus_soc):
        """Fluid bandwidth sharing subsumes any fixed partition, so the
        bus plan should not lose badly to the TAM plan (the local
        search is heuristic, hence the small slack)."""
        tam = repro.plan(bus_soc, 12, repro.RunConfig(compression="per-core"))
        bus = optimize_bus(bus_soc, 12, compression="per-core")
        assert bus.test_time <= tam.test_time * 1.10

    def test_single_core_uses_full_bus(self, bus_soc):
        one = bus_soc.subset([bus_soc.core_names[0]])
        plan = optimize_bus(one, 10, compression="per-core")
        name = one.core_names[0]
        # A lone core has no reason to throttle below the full bus.
        assert plan.rates[name] == 10

    @pytest.mark.parametrize("mode", ["bogus", "select", "per-tam", True, False])
    def test_rejects_unsupported_compression(self, bus_soc, mode):
        with pytest.raises(ValueError, match="none, per-core, auto"):
            optimize_bus(bus_soc, 8, compression=mode)

    def test_cpu_and_moves_reported(self, bus_soc):
        plan = optimize_bus(bus_soc, 8, compression="auto")
        assert plan.cpu_seconds > 0
        assert plan.moves_evaluated >= 1
        assert plan.compression == "auto"
