"""Ablation A5 -- heuristic quality versus the exact optimum.

The paper justifies its heuristic by NP-hardness.  This ablation runs
the exact branch-and-bound reference on downscaled instances (subsets
of d695 and random sparse SOCs) and measures the list heuristic's
optimality gap.
"""

import numpy as np
from conftest import run_once

from repro.core.optimal import optimal_schedule
from repro.core.partition import partitions_list
from repro.core.scheduler import schedule_cores
from repro.explore.dse import analysis_for
from repro.reporting.tables import format_table
from repro.soc.benchmarks import load_benchmark


def _d695_instance(width: int):
    soc = load_benchmark("d695").subset(
        ["s5378", "s9234", "s13207", "s15850", "s38417", "s38584"]
    )
    analyses = {c.name: analysis_for(c) for c in soc.cores}

    def time_of(name, w):
        return analyses[name].uncompressed_point(w).test_time

    names = list(soc.core_names)
    exact = optimal_schedule(names, width, time_of, max_parts=3)
    heuristic = min(
        schedule_cores(names, widths, time_of).makespan
        for widths in partitions_list(width, 3)
    )
    return heuristic, exact.makespan, exact.nodes_explored


def _random_instances(count=6, width=8):
    rng = np.random.default_rng(42)
    gaps = []
    for _ in range(count):
        names = [f"c{i}" for i in range(5)]
        work = {n: int(rng.integers(50, 1000)) for n in names}

        def time_of(name, w, _work=work):
            return -(-_work[name] // w)

        exact = optimal_schedule(names, width, time_of, max_parts=3)
        heuristic = min(
            schedule_cores(names, widths, time_of).makespan
            for widths in partitions_list(width, 3)
        )
        gaps.append(heuristic / exact.makespan)
    return gaps


def test_heuristic_optimality_gap(benchmark, record):
    def study():
        rows = []
        for width in (8, 12, 16):
            heuristic, exact, nodes = _d695_instance(width)
            rows.append(("d695-6core", width, heuristic, exact, heuristic / exact, nodes))
        return rows, _random_instances()

    rows, gaps = run_once(benchmark, study)
    # Also pit the simulated-annealing searcher against the optimum on
    # the same d695 instance (independent check on the list heuristic).
    from repro.search import run_search

    soc = load_benchmark("d695").subset(
        ["s5378", "s9234", "s13207", "s15850", "s38417", "s38584"]
    )
    analyses = {c.name: analysis_for(c) for c in soc.cores}
    sa = run_search(
        list(soc.core_names),
        16,
        lambda n, w: analyses[n].uncompressed_point(w).test_time,
        strategy="anneal",
        options={"iterations": 4000, "seed": 7},
    )
    exact_16 = next(r for r in rows if r[1] == 16)[3]
    assert sa.makespan <= exact_16 * 1.15
    rows = rows + [("d695-6core (SA)", 16, sa.makespan, exact_16, sa.makespan / exact_16, "-")]
    record(
        "ablation_optimality.txt",
        format_table(
            ["instance", "W", "heuristic", "optimal", "ratio", "B&B nodes"],
            [(i, w, h, e, round(r, 4), n) for i, w, h, e, r, n in rows]
            + [
                (
                    "random-5core (x6)",
                    8,
                    "-",
                    "-",
                    f"worst {max(gaps):.4f}",
                    "-",
                )
            ],
            title="Ablation A5 -- list-heuristic makespan vs exact optimum",
        ),
    )

    # Heuristic can never beat the optimum, and stays within 10% here.
    for _, _, heuristic, exact, ratio, _ in rows:
        assert heuristic >= exact
        assert ratio <= 1.10
    assert max(gaps) <= 1.10
