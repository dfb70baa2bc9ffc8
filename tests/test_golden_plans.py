"""Golden plan fingerprints: every flow's plans, pinned bit for bit.

Each case plans one design under one flow and width and reduces the
exported result to a fingerprint: the sha256 of ``result_to_json``
with its two timing fields (``optimizer.cpu_seconds`` and
``optimizer.stage_timings``) removed.  ``golden_plans.json`` holds the
fingerprints; a refactor of the table, search or scheduling layers
must leave every one of them unchanged.

Two more sections pin what a plan fingerprint does not reach:

* ``preemptive`` -- :func:`~repro.core.timeline.schedule_preemptive`
  on every catalogue SOC over per-core lookup tables at W=16, under
  two flat power budgets per partition; a fingerprint is the sha256 of
  the widths, makespan, peak power and every segment.
* ``searches`` -- :func:`~repro.search.run_search` on seeded random
  workloads under every registered strategy, including the inputs it
  rejects (recorded as ``"ValueError"``).  This section is checked by
  ``tests/test_search_differential.py``.

There is one test per design, so each design's analyses are built once
and shared by all of its cases.  Regenerate the file (only when plans
are meant to change) with::

    PYTHONPATH=src python tests/test_golden_plans.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

import numpy as np
import pytest

from repro.core.robust import robust_plan
from repro.core.timeline import ConstrainedSchedule, schedule_preemptive
from repro.pipeline import PlanResult, RunConfig, plan
from repro.pipeline.tables import LookupTables
from repro.power.model import power_table
from repro.reporting.export import result_to_json
from repro.search import PartitionSearchResult, run_search
from repro.soc.industrial import load_design
from repro.soc.soc import Soc

GOLDEN_PATH = Path(__file__).with_name("golden_plans.json")

CATALOGUE = ("d695", "d2758", "System1", "System2", "System3", "System4")
DESIGNS = CATALOGUE + ("synth100",)

#: Seeded random workloads pinned in the ``searches`` section.
SEARCH_SEEDS = 24


def _digest(payload: Any) -> str:
    return hashlib.sha256(json.dumps(payload, indent=2).encode()).hexdigest()


def fingerprint(result: PlanResult) -> str:
    """sha256 of the exported result without its timing fields."""
    payload = json.loads(result_to_json(result))
    del payload["optimizer"]["cpu_seconds"]
    del payload["optimizer"]["stage_timings"]
    return _digest(payload)


def golden() -> dict[str, Any]:
    """The committed fingerprint table."""
    return json.loads(GOLDEN_PATH.read_text())


def cases(design: str) -> Iterator[tuple[str, PlanResult]]:
    """``(case key, plan)`` for every pinned flow of one design."""
    soc = load_design(design)
    base = RunConfig(use_cache=False)
    if design == "synth100":
        width = 128
        searches = {
            "greedy": (),
            "anneal": (("iterations", "1000"), ("seed", "1")),
            "evolutionary": (
                ("generations", "5"),
                ("population", "12"),
                ("seed", "1"),
            ),
        }
        for strategy, options in searches.items():
            config = base.replace(strategy=strategy, search_opts=options)
            yield f"{strategy}@{width}", plan(soc, width, config)
        return
    for compression in ("per-core", "none", "auto"):
        for width in (8, 32, 64):
            config = base.replace(compression=compression)
            yield f"{compression}@{width}", plan(soc, width, config)
    if design in ("d695", "d2758"):
        yield "select@16", plan(soc, 16, base.replace(compression="select"))
    budget = 0.6 * sum(power_table(soc, compression=True).values())
    for width in (8, 16):
        yield f"power@{width}", plan(soc, width, base.replace(power_budget=budget))
        yield f"per-tam@{width}", plan(
            soc, width, base.replace(compression="per-tam")
        )
    packing = base.replace(architecture="packing", schedule="packing")
    for width in (16, 32):
        yield f"packing@{width}", plan(soc, width, packing)
    yield "robust@16", robust_plan(soc, 16, base).result
    yield from _entry_point_cases(design, soc, base)


def _entry_point_cases(
    design: str, soc: Soc, base: RunConfig
) -> Iterator[tuple[str, PlanResult]]:
    """W=12/16 plans of the constrained and per-TAM flows and strategies."""
    auto = base.replace(compression="auto")
    yield "per-core@16", plan(soc, 16, base)
    yield "auto@16", plan(soc, 16, auto)
    yield "auto/anneal@16", plan(soc, 16, auto.replace(strategy="anneal"))
    if design not in ("d695", "System1"):
        return
    yield "auto/greedy@16", plan(soc, 16, auto.replace(strategy="greedy"))
    yield "power900@12", plan(soc, 12, base.replace(power_budget=900.0))
    yield "per-tam@12", plan(soc, 12, base.replace(compression="per-tam"))
    if design != "d695":
        return
    yield "none@16", plan(soc, 16, base.replace(compression="none"))
    options = (("iterations", "900"), ("seed", "5"))
    yield "auto/anneal(iterations=900,seed=5)@16", plan(
        soc, 16, auto.replace(strategy="anneal", search_opts=options)
    )
    constrained = base.replace(architecture="constrained", schedule="constrained")
    yield "constrained@12", plan(soc, 12, constrained)
    yield "precedence@12", plan(soc, 12, base.replace(precedence=d695_precedence()))


def d695_precedence() -> tuple[tuple[str, str], ...]:
    """Precedence pairs over d695's first four cores."""
    names = list(load_design("d695").core_names)
    return ((names[0], names[1]), (names[2], names[3]))


def fingerprints(design: str) -> dict[str, str]:
    return {key: fingerprint(result) for key, result in cases(design)}


# ----------------------------------------------------------------------
# Preemptive schedules.
# ----------------------------------------------------------------------

PREEMPTIVE_WIDTH = 16
PREEMPTIVE_PARTITIONS = ((8, 8), (6, 5, 5))
#: Budgets are max(f * sum of core powers, largest core power).
PREEMPTIVE_FRACTIONS = (0.6, 0.3)


def preemptive_fingerprint(schedule: ConstrainedSchedule) -> str:
    return _digest(
        {
            "widths": list(schedule.widths),
            "makespan": schedule.makespan,
            "peak_power": schedule.peak_power,
            "segments": [
                [s.name, s.tam, s.start, s.end, s.power, s.index]
                for s in schedule.segments
            ],
        }
    )


def preemptive_cases(design: str) -> Iterator[tuple[str, ConstrainedSchedule]]:
    """``(case key, schedule)`` for every pinned preemptive schedule."""
    soc = load_design(design)
    names = list(soc.core_names)
    analyses = RunConfig(use_cache=False).analyses(
        soc.cores, max_tam_width=PREEMPTIVE_WIDTH
    )
    tables = LookupTables(analyses, "per-core", PREEMPTIVE_WIDTH)
    power = power_table(soc, compression=True)
    total, top = sum(power.values()), max(power.values())
    for widths in PREEMPTIVE_PARTITIONS:
        for fraction in PREEMPTIVE_FRACTIONS:
            key = "-".join(map(str, widths)) + f"@{fraction}"
            yield key, schedule_preemptive(
                names,
                widths,
                tables.time_of,
                power_of=power,
                power_budget=max(fraction * total, top),
            )
    if design == "d695":
        yield "8-8@0.6/precedence", schedule_preemptive(
            names,
            (8, 8),
            tables.time_of,
            power_of=power,
            power_budget=max(0.6 * total, top),
            precedence=d695_precedence(),
        )


def preemptive_fingerprints(design: str) -> dict[str, str]:
    return {
        key: preemptive_fingerprint(schedule)
        for key, schedule in preemptive_cases(design)
    }


# ----------------------------------------------------------------------
# Searches on seeded random workloads.
# ----------------------------------------------------------------------


def random_workload(seed: int) -> tuple[list[str], Callable[[str, int], int]]:
    """(core names, time_of) with ceil-divide scaling plus a floor."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 11))
    names = [f"c{i}" for i in range(n)]
    base = {name: int(rng.integers(40, 4000)) for name in names}
    floor = {name: int(rng.integers(1, 30)) for name in names}

    def time_of(name: str, width: int) -> int:
        return -(-base[name] // width) + floor[name]

    return names, time_of


def search_fingerprint(result: PartitionSearchResult) -> str:
    outcome = result.outcome
    return _digest(
        [
            list(outcome.widths),
            outcome.makespan,
            list(outcome.assignment),
            result.partitions_evaluated,
            result.strategy,
        ]
    )


def search_cases(strategy: str) -> Iterator[tuple[str, dict[str, Any]]]:
    """``(case key, run_search keywords)`` for every pinned search."""
    for seed in range(SEARCH_SEEDS):
        names, time_of = random_workload(seed)
        case: dict[str, Any] = dict(
            core_names=names, time_of=time_of, strategy=strategy
        )
        if strategy == "anneal":
            rng = np.random.default_rng(2000 + seed)
            case["total_width"] = int(rng.integers(4, 25))
            case["options"] = dict(
                iterations=300,
                cooling=0.995,
                seed=int(rng.integers(0, 1 << 16)),
            )
        else:
            rng = np.random.default_rng(1000 + seed)
            case["total_width"] = int(rng.integers(4, 25))
            case["max_parts"] = (
                None if rng.random() < 0.5 else int(rng.integers(1, 6))
            )
            case["min_width"] = int(rng.integers(1, 3))
        yield f"{strategy}/{seed}", case
    if strategy == "anneal":
        names, time_of = random_workload(3)
        yield "anneal/explicit-temperature", dict(
            core_names=names,
            total_width=12,
            time_of=time_of,
            strategy="anneal",
            options=dict(iterations=500, initial_temperature=50.0, seed=9),
        )
    if strategy == "auto":
        names, time_of = random_workload(0)
        yield "auto/over-the-limit", dict(
            core_names=names, total_width=128, time_of=time_of
        )


SEARCH_STRATEGIES = ("auto", "exhaustive", "greedy", "anneal")


def search_fingerprints(
    strategy: str, keys: Iterable[str] | None = None
) -> dict[str, str]:
    """Fingerprint of every search case (or of ``keys``).

    A case that raises is recorded as ``"ValueError"``.
    """
    table = {}
    for key, case in search_cases(strategy):
        if keys is not None and key not in keys:
            continue
        try:
            table[key] = search_fingerprint(run_search(**case))
        except ValueError:
            table[key] = "ValueError"
    return table


# ----------------------------------------------------------------------


def assert_table(golden_table: dict[str, str], actual: dict[str, str], what: str):
    changed = sorted(k for k in golden_table if actual.get(k) != golden_table[k])
    assert set(actual) == set(golden_table), what
    assert not changed, f"{what}: changed for {changed}"


@pytest.mark.parametrize("design", DESIGNS)
def test_golden_plans(design):
    table = golden()
    assert_table(table[design], fingerprints(design), design)
    if design not in CATALOGUE:
        return
    schedules = dict(preemptive_cases(design))
    actual = {key: preemptive_fingerprint(s) for key, s in schedules.items()}
    assert_table(table["preemptive"][design], actual, f"{design} preemptive")
    if design in ("System3", "System4"):
        # The tight budget splits tests here, so preemption is pinned.
        assert sum(s.preemption_count for s in schedules.values()) > 0


def _leaves(node: Any) -> int:
    return 1 if isinstance(node, str) else sum(map(_leaves, node.values()))


if __name__ == "__main__":
    table: dict[str, Any] = {design: fingerprints(design) for design in DESIGNS}
    table["preemptive"] = {
        design: preemptive_fingerprints(design) for design in CATALOGUE
    }
    table["searches"] = {
        strategy: search_fingerprints(strategy) for strategy in SEARCH_STRATEGIES
    }
    GOLDEN_PATH.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {_leaves(table)} fingerprints to {GOLDEN_PATH}")
