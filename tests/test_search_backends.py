"""The ``repro.search`` layer itself: registry, options, space, bounds.

Covers the surfaces the differential suite cannot: the backend
registry and option coercion (what ``--search-opt`` rides on), the
shared :func:`resolve_search_space` clamp (the one copy of logic that
used to be duplicated -- and divergent -- between ``partition.py`` and
``anneal.py``), sanity bounds of the metaheuristic backends against
the provably-optimal branch-and-bound schedule, the cooling-schedule
regression tests for the annealer fix, and the ``search.*``
observability wiring.

``REPRO_FUZZ_SEEDS`` widens the random sweeps in CI.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import obs
from repro.core.optimal import optimal_schedule
from repro.pipeline import RunConfig, plan
from repro.search import (
    Evaluator,
    backend_names,
    coerce_options,
    get_backend,
    register_backend,
    resolve_search_space,
    run_search,
)
from repro.search.backend import _BACKENDS
from repro.soc.industrial import load_design
from repro.verify import verify_architecture

ALL_DESIGNS = ("d695", "d2758", "System1", "System2", "System3", "System4")

FUZZ_SEEDS = int(os.environ.get("REPRO_FUZZ_SEEDS", 24))


def _random_workload(seed: int, max_cores: int = 11):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_cores))
    names = [f"c{i}" for i in range(n)]
    base = {name: int(rng.integers(40, 4000)) for name in names}
    floor = {name: int(rng.integers(1, 30)) for name in names}

    def time_of(name: str, width: int) -> int:
        return -(-base[name] // width) + floor[name]

    return names, time_of


# ----------------------------------------------------------------------
# Registry.
# ----------------------------------------------------------------------


class TestRegistry:
    def test_builtins_registered(self):
        assert {"exhaustive", "greedy", "anneal", "evolutionary"} <= set(
            backend_names()
        )

    def test_get_backend_returns_named(self):
        for name in ("exhaustive", "greedy", "anneal", "evolutionary"):
            assert get_backend(name).name == name

    def test_unknown_strategy_raises_with_available(self):
        with pytest.raises(ValueError, match="strategy") as err:
            get_backend("bogus")
        assert "evolutionary" in str(err.value)

    def test_register_backend_is_pluggable(self):
        class Dummy:
            name = "dummy-test"
            hyperparameters: dict[str, type] = {}

            def run(self, evaluator, space, **options):
                return evaluator.schedule(space.single_tam)

        register_backend(Dummy())
        try:
            assert get_backend("dummy-test").name == "dummy-test"
            assert "dummy-test" in backend_names()
        finally:
            _BACKENDS.pop("dummy-test", None)

    def test_run_search_unknown_strategy(self):
        names, time_of = _random_workload(0)
        with pytest.raises(ValueError, match="strategy"):
            run_search(names, 8, time_of, strategy="nope")


# ----------------------------------------------------------------------
# Option coercion (the --search-opt surface).
# ----------------------------------------------------------------------


class TestOptionCoercion:
    def test_typed_coercion_from_strings(self):
        backend = get_backend("anneal")
        coerced = coerce_options(
            backend,
            {"iterations": "500", "cooling": "0.99", "seed": "7"},
        )
        assert coerced == {"iterations": 500, "cooling": 0.99, "seed": 7}

    def test_bool_spellings(self):
        backend = get_backend("evolutionary")
        for raw, expected in [
            ("1", True), ("true", True), ("YES", True), ("on", True),
            ("0", False), ("false", False), ("No", False), ("off", False),
            (True, True), (False, False),
        ]:
            assert coerce_options(backend, {"resume": raw}) == {
                "resume": expected
            }

    def test_bad_bool_raises(self):
        backend = get_backend("evolutionary")
        with pytest.raises(ValueError, match="not a valid bool"):
            coerce_options(backend, {"resume": "maybe"})

    def test_bad_int_raises(self):
        backend = get_backend("anneal")
        with pytest.raises(ValueError, match="not a valid int"):
            coerce_options(backend, {"iterations": "many"})

    def test_unknown_option_lists_known_knobs(self):
        backend = get_backend("anneal")
        with pytest.raises(ValueError, match="known options") as err:
            coerce_options(backend, {"iteratons": "500"})
        assert "iterations" in str(err.value)
        assert "cooling" in str(err.value)

    def test_pipeline_rejects_unknown_option(self, tiny_soc):
        with pytest.raises(ValueError, match="known options"):
            plan(
                tiny_soc,
                8,
                RunConfig(
                    strategy="anneal", search_opts=(("bogus", "1"),)
                ),
            )


# ----------------------------------------------------------------------
# The shared clamp (satellite: one copy of max_parts/min_width logic).
# ----------------------------------------------------------------------


class TestResolveSearchSpace:
    def test_defaults_cap_at_six(self):
        space = resolve_search_space(10, 16)
        assert (space.max_parts, space.min_width) == (6, 1)

    def test_defaults_cap_at_core_count(self):
        assert resolve_search_space(3, 16).max_parts == 3

    def test_clamped_by_min_width(self):
        assert resolve_search_space(10, 16, min_width=5).max_parts == 3

    def test_explicit_max_parts_clamped(self):
        space = resolve_search_space(10, 16, max_parts=4, min_width=5)
        assert space.max_parts == 3

    def test_single_tam_property(self):
        assert resolve_search_space(4, 9).single_tam == (9,)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(num_cores=0, total_width=8), "zero cores"),
            (dict(num_cores=4, total_width=0), "total width"),
            (dict(num_cores=4, total_width=8, min_width=0), "min_width"),
            (dict(num_cores=4, total_width=8, max_parts=0), "max_parts"),
            (
                dict(num_cores=4, total_width=3, min_width=5),
                "cannot host",
            ),
        ],
    )
    def test_invalid_inputs_raise(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            resolve_search_space(**kwargs)

    def test_annealer_shim_shares_the_clamp(self):
        """The annealer rejects max_parts=0 like every other strategy."""
        with pytest.raises(ValueError, match="max_parts"):
            run_search(
                ["a", "b"], 8, lambda n, w: 1, strategy="anneal", max_parts=0
            )


# ----------------------------------------------------------------------
# Sanity bounds: metaheuristics vs the provable optimum.
# ----------------------------------------------------------------------


class TestSanityBounds:
    def test_metaheuristics_bounded_by_optimum(self):
        """anneal/evolutionary never report below the true optimum.

        The bound is the branch-and-bound joint optimum -- NOT the
        exhaustive+list-heuristic result: the metaheuristics search
        assignments directly and may legitimately beat the list
        scheduler on a fixed partition.
        """
        for seed in range(FUZZ_SEEDS):
            names, time_of = _random_workload(seed, max_cores=9)
            opt = optimal_schedule(names, 10, time_of, max_parts=3)
            single = max(
                sum(time_of(n, 10) for n in names), opt.makespan
            )
            for strategy, opts in [
                ("anneal", dict(iterations=400, seed=seed)),
                (
                    "evolutionary",
                    dict(generations=6, population=8, seed=seed),
                ),
            ]:
                found = run_search(
                    names, 10, time_of,
                    strategy=strategy, max_parts=3, options=opts,
                )
                assert opt.makespan <= found.makespan <= single
                assert sum(found.widths) <= 10

    @pytest.mark.parametrize("design", ALL_DESIGNS)
    @pytest.mark.parametrize("strategy", ["anneal", "evolutionary"])
    def test_benchmark_socs_verified_and_bounded(self, design, strategy):
        """On every benchmark SOC the metaheuristic plans verify clean
        and land between the single-TAM plan and feasibility."""
        soc = load_design(design)
        opts = {
            "anneal": (("iterations", "800"), ("seed", "1")),
            "evolutionary": (
                ("generations", "5"),
                ("population", "8"),
                ("seed", "1"),
            ),
        }[strategy]
        result = plan(
            soc,
            16,
            RunConfig(
                compression="auto",
                strategy=strategy,
                search_opts=opts,
                verify=True,  # VerifyStage raises on any violation
            ),
        )
        assert result.strategy == strategy
        single = plan(
            soc, 16, RunConfig(compression="auto", max_tams=1)
        )
        assert result.test_time <= single.test_time
        report = verify_architecture(result.architecture, soc=soc)
        assert report.ok, report.render()


# ----------------------------------------------------------------------
# Satellite: the annealer cooling-schedule fix.
# ----------------------------------------------------------------------


class TestCoolingFix:
    def test_seed_pinned_result(self):
        """Determinism regression: the fixed schedule, pinned literally."""
        names, time_of = _random_workload(1)
        result = run_search(
            names, 12, time_of,
            strategy="anneal",
            options=dict(iterations=600, cooling=0.99, seed=1),
        )
        assert result.widths == (5, 4, 3)
        assert result.makespan == 1127
        assert result.partitions_evaluated == 312

    def test_same_seed_same_result(self):
        names, time_of = _random_workload(2)
        opts = dict(iterations=500, seed=11)
        a = run_search(names, 10, time_of, strategy="anneal", options=opts)
        b = run_search(names, 10, time_of, strategy="anneal", options=opts)
        assert a == b

    def test_proposals_counted_separately_from_evaluations(self):
        """Proposals == iterations; evaluations == valid proposals + 1.

        The split is the observable proof of the fix: cooling now
        advances with the proposal counter, not the evaluation one.
        """
        names, time_of = _random_workload(4)
        iterations = 700
        with obs.enabled() as active:
            result = run_search(
                names, 12, time_of,
                strategy="anneal",
                options=dict(iterations=iterations, seed=3),
            )
        counters = active.registry.snapshot()["counters"]
        assert counters["search.proposals"] == iterations
        assert counters["search.evaluations"] == result.partitions_evaluated
        assert result.partitions_evaluated <= iterations + 1


# ----------------------------------------------------------------------
# Observability wiring.
# ----------------------------------------------------------------------


class TestObservability:
    def test_anneal_metrics_and_epoch_spans(self):
        from repro.search.backends.anneal import EPOCHS

        names, time_of = _random_workload(5)
        with obs.enabled() as active:
            result = run_search(
                names, 12, time_of,
                strategy="anneal", options=dict(iterations=300, seed=0),
            )
        snap = active.registry.snapshot()
        assert snap["counters"]["search.evaluations"] == (
            result.partitions_evaluated
        )
        assert snap["gauges"]["search.best_makespan"] == result.makespan
        epochs = [
            s for s in active.tracer.spans if s.name == "search.epoch"
        ]
        assert len(epochs) == EPOCHS
        assert all("temperature" in s.attrs for s in epochs)
        assert all("best_makespan" in s.attrs for s in epochs)

    def test_evolutionary_generation_spans(self):
        names, time_of = _random_workload(6)
        with obs.enabled() as active:
            result = run_search(
                names, 12, time_of,
                strategy="evolutionary",
                options=dict(generations=4, population=6, seed=0),
            )
        generations = [
            s for s in active.tracer.spans if s.name == "search.generation"
        ]
        assert len(generations) == 4
        assert all("front_size" in s.attrs for s in generations)
        snap = active.registry.snapshot()
        assert snap["counters"]["search.evaluations"] == (
            result.partitions_evaluated
        )

    def test_search_metrics_reach_the_run_report(self, tiny_soc):
        with obs.enabled():
            result = plan(
                tiny_soc,
                8,
                RunConfig(
                    strategy="anneal",
                    search_opts=(("iterations", "200"),),
                ),
            )
        counters = result.report.metrics["counters"]
        assert counters["search.evaluations"] == result.partitions_evaluated
        assert counters["search.proposals"] == 200
        gauges = result.report.metrics["gauges"]
        assert gauges["search.best_makespan"] == result.test_time


# ----------------------------------------------------------------------
# Evaluator bookkeeping.
# ----------------------------------------------------------------------


class TestEvaluator:
    def test_memo_hits_still_count(self):
        names, time_of = _random_workload(7)
        ev = Evaluator(names, time_of)
        first = ev.schedule((6, 4))
        second = ev.schedule((6, 4))
        assert first == second
        assert ev.evaluations == 2
        assert ev.distinct_schedules == 1

    def test_best_tracks_across_paths(self):
        names, time_of = _random_workload(7)
        ev = Evaluator(names, time_of)
        ev.schedule((10,))
        ev.schedule((6, 4))
        assert ev.best_makespan == min(
            ev.schedule((10,)).makespan, ev.schedule((6, 4)).makespan
        )

    def test_objectives_degenerate_without_lookups(self):
        names, time_of = _random_workload(7)
        ev = Evaluator(names, time_of)
        from repro.search import SearchState

        state = SearchState(
            widths=(6, 4), assignment=tuple(0 for _ in names)
        )
        makespan, volume, power = ev.objectives(state)
        assert makespan == ev.makespan_of(state.widths, state.assignment)
        assert volume == 0 and power == 0.0

    def test_objectives_with_lookups(self):
        names, time_of = _random_workload(7)
        ev = Evaluator(
            names,
            time_of,
            volume_of=lambda name, width: 100 * width,
            power_of=lambda name: 2.0,
        )
        from repro.search import SearchState

        n = len(names)
        state = SearchState(widths=(6, 4), assignment=(0,) * (n - 1) + (1,))
        _, volume, power = ev.objectives(state)
        assert volume == 600 * (n - 1) + 400
        assert power == 4.0  # max-per-TAM proxy: 2.0 + 2.0
