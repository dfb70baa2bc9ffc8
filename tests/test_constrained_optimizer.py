"""Integration tests for the power/precedence-constrained co-optimizer."""

import pytest

from repro.pipeline import RunConfig, plan
from repro.power.model import power_table
from repro.soc.core import Core
from repro.soc.soc import Soc


@pytest.fixture
def quad_soc() -> Soc:
    cores = tuple(
        Core(
            name=f"c{i}",
            inputs=6,
            outputs=6,
            scan_chain_lengths=tuple([30] * (6 + 2 * i)),
            patterns=30 + 5 * i,
            care_bit_density=0.04,
            one_fraction=0.3,
            seed=700 + i,
        )
        for i in range(4)
    )
    return Soc(name="quad", cores=cores)


#: The constrained flow with no constraint set: the exhaustive partition
#: scan and the constrained scheduler, per-core decompressors.
FREE = RunConfig(architecture="constrained", schedule="constrained")


class TestUnconstrainedAgreement:
    def test_matches_plain_optimizer_without_constraints(self, quad_soc):
        plain = plan(quad_soc, 12, RunConfig())
        constrained = plan(quad_soc, 12, FREE)
        assert constrained.test_time == plain.test_time
        assert constrained.tam_idle_cycles == 0


class TestPowerBudget:
    def test_loose_budget_is_free(self, quad_soc):
        table = power_table(quad_soc, compression=True)
        loose = plan(
            quad_soc, 12, RunConfig(power_budget=sum(table.values()) * 2)
        )
        free = plan(quad_soc, 12, FREE)
        assert loose.test_time == free.test_time

    def test_tight_budget_slows_but_respects_peak(self, quad_soc):
        table = power_table(quad_soc, compression=True)
        budget = max(table.values()) * 1.2  # barely one heavy core at a time
        tight = plan(quad_soc, 12, RunConfig(power_budget=budget))
        free = plan(quad_soc, 12, FREE)
        assert tight.peak_power <= budget + 1e-9
        assert tight.test_time >= free.test_time
        assert tight.power_budget == budget

    def test_infeasible_budget_raises(self, quad_soc):
        with pytest.raises(ValueError, match="exceeds the power budget"):
            plan(quad_soc, 12, RunConfig(power_budget=1e-6))

    def test_explicit_power_of(self, quad_soc):
        custom = {name: 1.0 for name in quad_soc.core_names}
        result = plan(quad_soc, 12, RunConfig(power_of=custom, power_budget=2.0))
        assert result.peak_power <= 2.0

    @pytest.mark.parametrize(
        "stages",
        [
            {},
            {"architecture": "evolutionary", "schedule": "list"},
            {"architecture": "constrained", "schedule": "constrained"},
        ],
    )
    def test_power_map_missing_cores_names_them(self, quad_soc, stages):
        """One rule, whichever loop reads the map first: every gap named."""
        evolutionary = stages.get("architecture") == "evolutionary"
        config = RunConfig(
            power_of={"c1": 1.0, "c3": 1.0},
            # Only the constrained schedule honours a budget; the list
            # flow refuses one, so there the map alone is read.
            power_budget=None if evolutionary else 2.0,
            search_opts=(("generations", "1"), ("population", "4"))
            if evolutionary
            else (),
            **stages,
        )
        with pytest.raises(ValueError, match=r"core\(s\) c0, c2$"):
            plan(quad_soc, 12, config)


class TestPrecedence:
    def test_precedence_ordering_respected(self, quad_soc):
        result = plan(
            quad_soc, 12, RunConfig(precedence=(("c3", "c0"), ("c2", "c0")))
        )
        slots = {
            s.config.core_name: s for s in result.architecture.scheduled
        }
        assert slots["c0"].start >= slots["c3"].end
        assert slots["c0"].start >= slots["c2"].end

    def test_precedence_never_faster(self, quad_soc):
        free = plan(quad_soc, 12, FREE)
        chained = plan(
            quad_soc,
            12,
            RunConfig(precedence=(("c0", "c1"), ("c1", "c2"), ("c2", "c3"))),
        )
        assert chained.test_time >= free.test_time

    def test_architecture_valid_with_gaps(self, quad_soc):
        # The TestArchitecture overlap validation must accept idle gaps.
        result = plan(
            quad_soc, 12, RunConfig(precedence=(("c0", "c1"),), power_budget=1e9)
        )
        assert result.architecture.test_time == result.test_time


class TestCompressionInteraction:
    def test_compression_lowers_power_budget_pressure(self, quad_soc):
        """With majority fill, the same absolute budget hurts less."""
        budget = max(power_table(quad_soc, compression=False).values()) * 1.5
        plain = plan(quad_soc, 12, RunConfig(compression="none", power_budget=budget))
        packed = plan(
            quad_soc, 12, RunConfig(compression="per-core", power_budget=budget)
        )
        # Compressed tests are both faster and cooler.
        assert packed.test_time < plain.test_time
        assert packed.peak_power < plain.peak_power
