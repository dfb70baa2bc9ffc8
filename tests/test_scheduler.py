"""Unit tests for the list scheduler and architecture building."""

import pytest

from repro.core.architecture import CoreConfig, DecompressorPlacement
from repro.core.scheduler import build_architecture, schedule_cores


def flat_time(times):
    """A TimeFn ignoring the width."""
    return lambda name, width: times[name]


def width_scaled_time(work):
    """A TimeFn modelling perfectly divisible work."""
    return lambda name, width: -(-work[name] // width)


class TestScheduleCores:
    def test_single_core_single_tam(self):
        outcome = schedule_cores(["a"], [4], flat_time({"a": 10}))
        assert outcome.makespan == 10
        assert outcome.assignment == (0,)

    def test_requires_a_tam(self):
        with pytest.raises(ValueError):
            schedule_cores(["a"], [], flat_time({"a": 1}))

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            schedule_cores(["a"], [0], flat_time({"a": 1}))

    def test_balances_two_tams(self):
        times = {"a": 6, "b": 5, "c": 4, "d": 3}
        outcome = schedule_cores(list(times), [2, 2], flat_time(times))
        # LPT: a->0, b->1, c->1(9) vs 0(10)? c goes to the TAM giving the
        # smaller makespan; optimum here is 9.
        assert outcome.makespan == 9

    def test_longest_first_order(self):
        # With equal TAMs, the longest core must not share a TAM with the
        # second longest when a free TAM exists.
        times = {"long": 100, "mid": 50, "tiny": 1}
        outcome = schedule_cores(list(times), [1, 1, 1], flat_time(times))
        assert len(set(outcome.assignment)) == 3
        assert outcome.makespan == 100

    def test_width_dependent_times(self):
        work = {"a": 100, "b": 100}
        outcome = schedule_cores(["a", "b"], [4, 1], width_scaled_time(work))
        # One core per TAM: max(25, 100) = 100; both on the wide TAM: 50.
        assert outcome.makespan == 50

    def test_deterministic_tie_break(self):
        times = {"a": 5, "b": 5}
        one = schedule_cores(["a", "b"], [1, 1], flat_time(times))
        two = schedule_cores(["a", "b"], [1, 1], flat_time(times))
        assert one == two

    def test_makespan_is_max_load(self):
        times = {"a": 3, "b": 4, "c": 10}
        outcome = schedule_cores(list(times), [1, 1], flat_time(times))
        loads = [0, 0]
        for name, tam in zip(times, outcome.assignment):
            loads[tam] += times[name]
        assert outcome.makespan == max(loads)


class TestBuildArchitecture:
    def _config_fn(self, times):
        def config_of(name, width):
            return CoreConfig(
                core_name=name,
                uses_compression=False,
                wrapper_chains=width,
                code_width=None,
                test_time=times[name],
                volume=times[name] * width,
            )

        return config_of

    def test_architecture_matches_outcome(self):
        times = {"a": 6, "b": 5, "c": 4}
        names = list(times)
        outcome = schedule_cores(names, [2, 1], flat_time(times))
        arch = build_architecture(
            "soc",
            names,
            outcome,
            self._config_fn(times),
            placement=DecompressorPlacement.NONE,
            ate_channels=3,
            time_of=flat_time(times),
        )
        assert arch.test_time == outcome.makespan
        assert len(arch.scheduled) == 3
        assert arch.total_tam_width == 3

    def test_serial_slots_per_tam(self):
        times = {"a": 6, "b": 5, "c": 4, "d": 3}
        names = list(times)
        outcome = schedule_cores(names, [1], flat_time(times))
        arch = build_architecture(
            "soc",
            names,
            outcome,
            self._config_fn(times),
            placement=DecompressorPlacement.NONE,
            ate_channels=1,
            time_of=flat_time(times),
        )
        slots = sorted(arch.scheduled, key=lambda s: s.start)
        for first, second in zip(slots, slots[1:]):
            assert second.start == first.end

    def test_layout_order_follows_scheduler_time_of(self):
        # Regression: the scheduler orders cores by time_of(name,
        # widest), but build_architecture used to re-derive the order
        # from config_of(name, widest).test_time.  A resolver that
        # disagrees at the widest width (here width 4, which neither
        # core is assigned to, so slot lengths stay consistent)
        # shuffled start times away from the ScheduleOutcome's layout.
        times = {("a", 4): 100, ("a", 1): 10, ("b", 4): 101, ("b", 1): 8}
        config_times = dict(times)
        config_times[("b", 4)] = 1  # disagrees only at the widest width

        def time_of(name, width):
            return times[(name, width)]

        def config_of(name, width):
            return CoreConfig(
                core_name=name,
                uses_compression=False,
                wrapper_chains=width,
                code_width=None,
                test_time=config_times[(name, width)],
                volume=config_times[(name, width)] * width,
            )

        names = ["a", "b"]
        outcome = schedule_cores(names, [4, 1], time_of)
        assert outcome.assignment == (1, 1)  # both on the narrow TAM
        arch = build_architecture(
            "soc",
            names,
            outcome,
            config_of,
            placement=DecompressorPlacement.NONE,
            ate_channels=5,
            time_of=time_of,
        )
        slots = {s.config.core_name: (s.start, s.end) for s in arch.scheduled}
        # The scheduler placed b (longest at the widest width) first.
        assert slots["b"] == (0, 8)
        assert slots["a"] == (8, 18)
        assert arch.test_time == outcome.makespan

    def test_volume_summed(self):
        times = {"a": 2, "b": 3}
        names = list(times)
        outcome = schedule_cores(names, [2], flat_time(times))
        arch = build_architecture(
            "soc",
            names,
            outcome,
            self._config_fn(times),
            placement=DecompressorPlacement.NONE,
            ate_channels=2,
            time_of=flat_time(times),
        )
        assert arch.test_data_volume == 2 * 2 + 3 * 2
