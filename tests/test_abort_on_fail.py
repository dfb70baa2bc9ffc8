"""Tests for abort-on-first-fail expected time and the ratio ordering."""

import itertools

import pytest

import repro
from repro.core.abort_on_fail import (
    expected_improvement,
    expected_session_time,
    reorder_within_tams,
)
from repro.core.architecture import (
    CoreConfig,
    DecompressorPlacement,
    ScheduledCore,
    Tam,
    TestArchitecture,
)
from repro.verify import verify_architecture


def _serial_arch(order, times):
    """One TAM, cores back-to-back in the given order."""
    slots = []
    clock = 0
    for name in order:
        config = CoreConfig(
            core_name=name,
            uses_compression=False,
            wrapper_chains=1,
            code_width=None,
            test_time=times[name],
            volume=0,
        )
        slots.append(
            ScheduledCore(config=config, tam_index=0, start=clock, end=clock + times[name])
        )
        clock += times[name]
    return TestArchitecture(
        soc_name="s",
        placement=DecompressorPlacement.NONE,
        tams=(Tam(0, 1),),
        scheduled=tuple(slots),
        ate_channels=1,
    )


class TestExpectedSessionTime:
    def test_no_failures_gives_makespan(self):
        arch = _serial_arch(["a", "b"], {"a": 5, "b": 7})
        assert expected_session_time(arch, {}) == pytest.approx(12.0)

    def test_certain_first_failure(self):
        arch = _serial_arch(["a", "b"], {"a": 5, "b": 7})
        assert expected_session_time(arch, {"a": 1.0}) == pytest.approx(5.0)

    def test_two_core_expectation_by_hand(self):
        arch = _serial_arch(["a", "b"], {"a": 4, "b": 6})
        p = {"a": 0.5, "b": 0.5}
        # 0.5*4 + 0.5*0.5*10 + 0.25*10 = 2 + 2.5 + 2.5
        assert expected_session_time(arch, p) == pytest.approx(7.0)

    def test_invalid_probability(self):
        arch = _serial_arch(["a"], {"a": 4})
        with pytest.raises(ValueError):
            expected_session_time(arch, {"a": 1.5})

    def test_parallel_tams(self):
        config = lambda name, t: CoreConfig(  # noqa: E731
            core_name=name,
            uses_compression=False,
            wrapper_chains=1,
            code_width=None,
            test_time=t,
            volume=0,
        )
        arch = TestArchitecture(
            soc_name="s",
            placement=DecompressorPlacement.NONE,
            tams=(Tam(0, 1), Tam(1, 1)),
            scheduled=(
                ScheduledCore(config=config("a", 4), tam_index=0, start=0, end=4),
                ScheduledCore(config=config("b", 10), tam_index=1, start=0, end=10),
            ),
            ate_channels=2,
        )
        # a fails -> abort at 4; else b fails -> abort at 10; else 10.
        value = expected_session_time(arch, {"a": 0.5, "b": 0.5})
        assert value == pytest.approx(0.5 * 4 + 0.5 * 10)


class TestRatioRule:
    def test_single_tam_ratio_rule_is_optimal(self):
        times = {"a": 10, "b": 3, "c": 7, "d": 2}
        probs = {"a": 0.02, "b": 0.4, "c": 0.1, "d": 0.05}
        best = min(
            expected_session_time(_serial_arch(order, times), probs)
            for order in itertools.permutations(times)
        )
        reordered = reorder_within_tams(_serial_arch(list(times), times), probs)
        assert expected_session_time(reordered, probs) == pytest.approx(best)

    def test_reorder_never_hurts_serial(self):
        import numpy as np

        for seed in range(10):
            rng = np.random.default_rng(seed)
            names = [f"c{i}" for i in range(5)]
            times = {n: int(rng.integers(1, 50)) for n in names}
            probs = {n: float(rng.uniform(0, 0.5)) for n in names}
            arch = _serial_arch(names, times)
            before, after, _ = expected_improvement(arch, probs)
            assert after <= before + 1e-9

    def test_makespan_preserved(self):
        times = {"a": 10, "b": 3, "c": 7}
        probs = {"a": 0.5, "b": 0.1, "c": 0.9}
        arch = _serial_arch(list(times), times)
        reordered = reorder_within_tams(arch, probs)
        assert reordered.test_time == arch.test_time

    def test_gappy_tams_left_alone(self):
        config = CoreConfig(
            core_name="a",
            uses_compression=False,
            wrapper_chains=1,
            code_width=None,
            test_time=5,
            volume=0,
        )
        other = CoreConfig(
            core_name="b",
            uses_compression=False,
            wrapper_chains=1,
            code_width=None,
            test_time=5,
            volume=0,
        )
        arch = TestArchitecture(
            soc_name="s",
            placement=DecompressorPlacement.NONE,
            tams=(Tam(0, 1),),
            scheduled=(
                ScheduledCore(config=config, tam_index=0, start=0, end=5),
                ScheduledCore(config=other, tam_index=0, start=9, end=14),
            ),
            ate_channels=1,
        )
        # Idle gap (power/precedence artifact): ordering must not move.
        reordered = reorder_within_tams(arch, {"b": 0.9})
        starts = sorted(s.start for s in reordered.scheduled)
        assert starts == [0, 9]


class TestOnRealPlan:
    def test_d695_plan_improves(self):
        soc = repro.load_design("d695")
        plan = repro.plan(soc, 16, repro.RunConfig(compression="none"))
        probs = {name: 0.02 + 0.01 * i for i, name in enumerate(soc.core_names)}
        before, after, reordered = expected_improvement(plan.architecture, probs)
        assert after <= before
        assert reordered.test_time == plan.test_time

    @pytest.mark.parametrize(
        "design, compression", [("d695", "none"), ("System1", "per-core")]
    )
    def test_reordered_plan_verifies(self, design, compression):
        """The reordered plan passes the independent invariant checker."""
        soc = repro.load_design(design)
        config = repro.RunConfig(compression=compression)
        plan = repro.plan(soc, 16, config)
        probs = {name: 0.02 + 0.01 * i for i, name in enumerate(soc.core_names)}
        reordered = reorder_within_tams(plan.architecture, probs)
        report = verify_architecture(reordered, soc=soc, config=config)
        assert report.ok, report.summary()
        assert reordered.test_time == plan.test_time
