"""Tests for the bus-based test transport planner."""

import dataclasses

import pytest

import repro
from repro.core.bus import BUS_MODES, BusPlan, optimize_bus
from repro.explore.dse import analysis_for
from repro.soc.core import Core
from repro.soc.industrial import load_design
from repro.soc.soc import Soc
from repro.verify import verify_constrained


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
        scheduled = {s.name for s in plan.schedule.segments}
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


def verify_bus(soc, plan, schedule=None):
    """``verify_constrained`` on a bus plan, the bandwidth as the budget.

    Each core's test time and bus tap are re-derived from its analysis
    at the rate the plan grants it, not read off the schedule.  Under
    ``auto`` plain scan is kept when it is as fast and no larger.
    """
    times, taps = {}, {}
    for core in soc.cores:
        analysis = analysis_for(core)
        rate = plan.rates[core.name]
        plain = analysis.uncompressed_point(rate)
        best = None
        if plan.compression != "none":
            best = analysis.best_compressed_for_tam(rate)
        if best is None or (
            plan.compression == "auto"
            and (plain.test_time, plain.volume) <= (best.test_time, best.volume)
        ):
            times[core.name], taps[core.name] = plain.test_time, rate
        else:
            times[core.name], taps[core.name] = best.test_time, best.code_width
    return verify_constrained(
        schedule or plan.schedule,
        soc.core_names,
        lambda name, _width: times[name],
        power_of={name: float(tap) for name, tap in taps.items()},
        power_budget=float(plan.bus_width),
    )


class TestBusVerification:
    @pytest.mark.parametrize("mode", BUS_MODES)
    def test_fixture_plans_verify(self, bus_soc, mode):
        plan = optimize_bus(bus_soc, 12, compression=mode)
        report = verify_bus(bus_soc, plan)
        assert report.ok, report.summary()
        assert "power-budget" in report.checks

    @pytest.mark.parametrize("mode", BUS_MODES)
    def test_d695_plans_verify(self, mode):
        soc = load_design("d695")
        report = verify_bus(soc, optimize_bus(soc, 16, compression=mode))
        assert report.ok, report.summary()

    def test_segment_moved_past_the_bandwidth_flagged(self, bus_soc):
        plan = optimize_bus(bus_soc, 12, compression="per-core")
        segments = plan.schedule.segments
        last = max(segments, key=lambda s: s.start)
        busy = sum(s.power for s in segments if s.start == 0)
        assert busy + last.power > plan.bus_width  # the bus is full at 0
        moved = dataclasses.replace(last, start=0, end=last.duration)
        tampered = dataclasses.replace(
            plan.schedule,
            segments=tuple(moved if s is last else s for s in segments),
        )
        report = verify_bus(bus_soc, plan, tampered)
        assert any(v.code == "power-budget" for v in report.violations)
