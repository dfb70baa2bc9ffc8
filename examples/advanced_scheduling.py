#!/usr/bin/env python3
"""Advanced scheduling extensions: preemption, multi-frequency TAMs,
robustness, and the heuristic-vs-optimal gap.

Run::

    python examples/advanced_scheduling.py

Four short studies on the same three-core workload:

1. preemptive scheduling under a power budget (split a long, cool test
   around two short, hot ones);
2. multi-frequency TAMs (trade wires for scan clock within an ATE
   bandwidth budget);
3. robust planning when per-core test times carry +-15% uncertainty;
4. the list heuristic's gap to the exact branch-and-bound optimum.
"""

from repro.core.multifrequency import optimize_multifrequency
from repro.core.optimal import optimal_schedule
from repro.core.partition import partitions_list
from repro.core.robust import evaluate_under_uncertainty, robust_search
from repro.core.scheduler import schedule_cores
from repro.core.timeline import schedule_constrained, schedule_preemptive
from repro.explore.dse import analysis_for
from repro.search import run_search
from repro.soc.core import Core


def build_cores() -> dict[str, Core]:
    # The two "hot" cores are small (few scanned elements), so their
    # test time saturates at narrow TAM widths -- extra wires are wasted
    # on them, but a faster scan clock still helps: the multi-frequency
    # study below exploits exactly that.
    specs = {
        "cool-long": (24, 60, 120, 0.02),
        "hot-a": (6, 30, 60, 0.05),
        "hot-b": (6, 30, 60, 0.05),
    }
    cores = {}
    for index, (name, (chains, length, patterns, density)) in enumerate(
        specs.items()
    ):
        cores[name] = Core(
            name=name,
            inputs=8,
            outputs=8,
            scan_chain_lengths=(length,) * chains,
            patterns=patterns,
            care_bit_density=density,
            one_fraction=0.3,
            seed=900 + index,
        )
    return cores


def main() -> None:
    cores = build_cores()
    names = list(cores)
    analyses = {name: analysis_for(core) for name, core in cores.items()}

    def time_of(name: str, width: int) -> int:
        return analyses[name].time_at_tam(width, compression="per-core")

    # ------------------------------------------------------------------
    print("1. preemption under a power budget (W = 12, two TAMs of 6)")
    power = {"cool-long": 2.0, "hot-a": 5.0, "hot-b": 5.0}
    budget = 7.5  # cool+hot fits; hot+hot does not
    plain = schedule_constrained(
        names, [6, 6], time_of, power_of=power, power_budget=budget
    )
    split = schedule_preemptive(
        names, [6, 6], time_of, power_of=power, power_budget=budget,
        max_segments=3,
    )
    print(
        f"   non-preemptive: {plain.makespan:,} cycles | "
        f"preemptive: {split.makespan:,} cycles "
        f"({split.preemption_count} split(s)), both peak <= {budget}"
    )
    print(
        "   (preemption never hurts; here the greedy non-preemptive "
        "schedule is already tight)"
    )

    # ------------------------------------------------------------------
    print("2. multi-frequency TAMs (bandwidth budget 12 ATE bits/cycle)")
    single = optimize_multifrequency(names, 12, time_of, ratios=(1,))
    multi = optimize_multifrequency(
        names, 12, time_of, ratios=(1, 2, 4), freq_limit={"cool-long": 2}
    )
    described = ", ".join(f"{t.width}w@{t.ratio}x" for t in multi.tams)
    print(
        f"   single-rate: {single.makespan:,} cycles on "
        f"{sum(t.width for t in single.tams)} wires | "
        f"multi-rate: {multi.makespan:,} cycles on {multi.total_wires} "
        f"wires ({described})"
    )

    # ------------------------------------------------------------------
    print("3. robustness to +-15% test-time uncertainty (W = 12)")
    nominal = run_search(names, 12, time_of)
    nominal_report = evaluate_under_uncertainty(
        names, nominal.outcome, time_of, epsilon=0.15
    )
    robust = robust_search(names, 12, time_of, epsilon=0.15)
    print(
        f"   nominal-optimal plan: {nominal_report.nominal:,} nominal, "
        f"{nominal_report.worst:,} worst-case "
        f"(regret {nominal_report.regret:.3f})"
    )
    print(
        f"   robust plan:          {robust.nominal_makespan:,} nominal, "
        f"{robust.worst_case_makespan:,} worst-case"
    )

    # ------------------------------------------------------------------
    print("4. heuristic vs exact optimum (W = 8)")
    exact = optimal_schedule(names, 8, time_of, max_parts=3)
    heuristic = min(
        schedule_cores(names, widths, time_of).makespan
        for widths in partitions_list(8, 3)
    )
    print(
        f"   heuristic {heuristic:,} vs optimal {exact.makespan:,} "
        f"(ratio {heuristic / exact.makespan:.4f}, "
        f"{exact.nodes_explored} B&B nodes)"
    )


if __name__ == "__main__":
    main()
