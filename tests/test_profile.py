"""Tests for schedule profiling (utilization + power envelope)."""

import pytest

import repro
from repro.power.model import power_table
from repro.reporting.profile import (
    peak_power,
    power_profile,
    render_power_profile,
    render_utilization,
    tam_utilization,
)
from repro.soc.core import Core
from repro.soc.industrial import load_design
from repro.soc.soc import Soc


@pytest.fixture(scope="module")
def planned():
    cores = tuple(
        Core(
            name=f"c{i}",
            inputs=6,
            outputs=6,
            scan_chain_lengths=(30,) * (8 + 2 * i),
            patterns=40,
            care_bit_density=0.04,
            seed=970 + i,
        )
        for i in range(3)
    )
    soc = Soc(name="prof", cores=cores)
    return soc, repro.plan(soc, 10)


class TestUtilization:
    def test_per_tam_entries(self, planned):
        _, plan = planned
        stats = tam_utilization(plan.architecture)
        assert len(stats) == len(plan.tam_widths)
        assert all(0.0 <= s.utilization <= 1.0 for s in stats)

    def test_some_tam_fully_busy(self, planned):
        """The bottleneck TAM is busy from 0 to the makespan."""
        _, plan = planned
        stats = tam_utilization(plan.architecture)
        assert any(s.utilization == pytest.approx(1.0) for s in stats)

    def test_busy_cycles_sum(self, planned):
        _, plan = planned
        stats = tam_utilization(plan.architecture)
        total_busy = sum(s.busy_cycles for s in stats)
        expected = sum(
            s.end - s.start for s in plan.architecture.scheduled
        )
        assert total_busy == expected

    def test_render(self, planned):
        _, plan = planned
        text = render_utilization(plan.architecture)
        assert "TAM utilization" in text
        assert "% busy" in text
        assert "wire-cycles" in text


class TestD695Utilization:
    """Satellite coverage on the paper's own benchmark (ITC'02 d695)."""

    @pytest.fixture(scope="class")
    def d695_planned(self):
        from repro.soc.benchmarks import load_benchmark

        soc = load_benchmark("d695")
        return soc, repro.plan(soc, 16)

    def test_wire_cycles_wasted_arithmetic(self, d695_planned):
        _, plan = d695_planned
        for s in tam_utilization(plan.architecture):
            assert s.wire_cycles_wasted == (
                (s.total_cycles - s.busy_cycles) * s.width
            )
            assert s.wire_cycles_wasted >= 0

    def test_total_cycles_is_the_makespan_everywhere(self, d695_planned):
        _, plan = d695_planned
        stats = tam_utilization(plan.architecture)
        assert {s.total_cycles for s in stats} == {plan.test_time}
        # One TAM per partition slot, widths matching the architecture.
        assert [s.width for s in stats] == list(plan.tam_widths)

    def test_bottleneck_tam_wastes_nothing(self, d695_planned):
        _, plan = d695_planned
        stats = tam_utilization(plan.architecture)
        bottleneck = max(stats, key=lambda s: s.utilization)
        assert bottleneck.utilization == pytest.approx(1.0)
        assert bottleneck.wire_cycles_wasted == 0

    def test_busy_cycles_sum_matches_schedule(self, d695_planned):
        _, plan = d695_planned
        stats = tam_utilization(plan.architecture)
        assert sum(s.busy_cycles for s in stats) == sum(
            s.end - s.start for s in plan.architecture.scheduled
        )

    def test_power_profile_conserves_area(self, d695_planned):
        """Integral of the step function == sum of core power*duration."""
        soc, plan = d695_planned
        table = power_table(soc, compression=True)
        profile = power_profile(plan.architecture, table)
        times = [t for t, _ in profile] + [plan.test_time]
        area = sum(
            level * (times[i + 1] - times[i])
            for i, (_, level) in enumerate(profile)
        )
        expected = sum(
            table[s.config.core_name] * (s.end - s.start)
            for s in plan.architecture.scheduled
        )
        assert area == pytest.approx(expected)

    def test_render_utilization_reports_overall_share(self, d695_planned):
        _, plan = d695_planned
        text = render_utilization(plan.architecture)
        assert "TAM utilization:" in text
        assert "of wire-cycles carry test data" in text


class TestPowerProfile:
    def test_profile_starts_at_zero_time(self, planned):
        soc, plan = planned
        table = power_table(soc, compression=True)
        profile = power_profile(plan.architecture, table)
        assert profile[0][0] == 0
        # The session ends with all tests done: final level is zero.
        assert profile[-1][1] == pytest.approx(0.0, abs=1e-9)

    def test_peak_matches_constrained_scheduler(self):
        """The reporting sweep is the schedulers': the peaks are equal."""
        cores = tuple(
            Core(
                name=f"p{i}",
                inputs=4,
                outputs=4,
                scan_chain_lengths=(25,) * 10,
                patterns=30,
                care_bit_density=0.04,
                seed=980 + i,
            )
            for i in range(3)
        )
        soc = Soc(name="pp", cores=cores)
        cases = [(soc, 9, 1.0)]  # a loose budget: the sum of all powers
        # The catalogue power plans, under the budgets max(f * sum, max).
        for design in ("d695", "d2758", "System1", "System2", "System3",
                       "System4"):
            for width in (8, 12, 16, 24):
                cases += [(load_design(design), width, f) for f in (0.6, 0.4)]
        mismatches = []
        for case_soc, width, fraction in cases:
            table = power_table(case_soc, compression=True)
            budget = max(fraction * sum(table.values()), max(table.values()))
            config = repro.RunConfig(power_budget=budget)
            plan = repro.plan(case_soc, width, config)
            peak = peak_power(power_profile(plan.architecture, table))
            if peak != plan.peak_power:
                mismatches.append((case_soc.name, width, fraction, peak))
        assert mismatches == []

    def test_levels_never_negative(self, planned):
        soc, plan = planned
        table = power_table(soc, compression=True)
        profile = power_profile(plan.architecture, table)
        assert all(level >= -1e-9 for _, level in profile)

    def test_render_with_budget_marker(self, planned):
        soc, plan = planned
        table = power_table(soc, compression=True)
        text = render_power_profile(
            plan.architecture, table, budget=1.2 * max(table.values())
        )
        assert "power profile" in text
        assert "budget" in text
        assert "#" in text

    def test_render_empty(self):
        from repro.core.architecture import (
            DecompressorPlacement,
            Tam,
            TestArchitecture,
        )

        empty = TestArchitecture(
            soc_name="e",
            placement=DecompressorPlacement.NONE,
            tams=(Tam(0, 1),),
            scheduled=(),
            ate_channels=1,
        )
        assert render_power_profile(empty, {}) == "(empty schedule)"
