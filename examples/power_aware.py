#!/usr/bin/env python3
"""Power- and precedence-constrained test planning (extension).

Run::

    python examples/power_aware.py

Plans System2 under a shrinking flat-power budget, showing the
time/power trade-off, why compressed delivery (majority-fill slices)
relaxes the budget, and how precedence constraints reshape the
schedule.  Ends with an abort-on-first-fail analysis: given per-core
failure probabilities, reorder each TAM's queue to minimize the
expected session time on bad dies.
"""

import repro
from repro.core.abort_on_fail import expected_improvement
from repro.power.model import core_test_power, power_table
from repro.reporting.profile import render_power_profile, render_utilization


def main() -> None:
    soc = repro.load_design("System2")
    plain_power = power_table(soc, compression=False)
    packed_power = power_table(soc, compression=True)

    print("per-core flat scan power (toggle units):")
    for core in soc:
        print(
            f"  {core.name:>7}: random-fill {plain_power[core.name]:>9.0f} | "
            f"decompressor majority-fill {packed_power[core.name]:>7.0f}"
        )
    total = sum(plain_power.values())
    print(
        f"SOC totals: {total:.0f} (random fill) vs "
        f"{sum(packed_power.values()):.0f} (TDC fill) -- compression is "
        "also a power technique\n"
    )

    plain = repro.RunConfig(compression="none")
    print("power budget sweep at W_TAM = 32 (no TDC):")
    for fraction in (1.0, 0.6, 0.45, 0.4):
        budget = total * fraction
        plan = repro.plan(soc, 32, plain.replace(power_budget=budget))
        print(
            f"  budget {fraction:>4.2f}x: {plan.test_time:>10,} cycles, "
            f"peak power {plan.peak_power:>8.0f}, "
            f"TAM idle {plan.tam_idle_cycles:,} cycles"
        )
    print()

    print("same budgets with TDC (majority fill barely notices them):")
    for fraction in (1.0, 0.4):
        plan = repro.plan(soc, 32, repro.RunConfig(power_budget=total * fraction))
        print(
            f"  budget {fraction:>4.2f}x: {plan.test_time:>10,} cycles, "
            f"peak power {plan.peak_power:>8.0f}"
        )
    print()

    # Precedence: suppose ckt-4 repairs a fuse block that ckt-6 and
    # ckt-8 depend on, so their tests must wait for it.
    chained = repro.plan(
        soc,
        32,
        repro.RunConfig(precedence=(("ckt-4", "ckt-6"), ("ckt-4", "ckt-8"))),
    )
    # The same constrained flow with no constraint set.
    free = repro.plan(
        soc,
        32,
        repro.RunConfig(architecture="constrained", schedule="constrained"),
    )
    print(
        f"precedence (ckt-4 before ckt-6/ckt-8): {chained.test_time:,} "
        f"cycles vs {free.test_time:,} unconstrained"
    )
    print(chained.architecture.render_gantt())
    print(render_utilization(chained.architecture))
    tight = repro.plan(soc, 32, plain.replace(power_budget=total * 0.45))
    print(
        render_power_profile(
            tight.architecture, plain_power, budget=total * 0.45
        )
    )
    print()

    # Abort-on-first-fail: yield learning says the big cores fail more.
    fail_prob = {
        core.name: min(0.4, 0.02 + core.scan_cells / 400_000) for core in soc
    }
    plan = repro.plan(soc, 32)
    before, after, reordered = expected_improvement(
        plan.architecture, fail_prob
    )
    print(
        "abort-on-first-fail expected session time: "
        f"{before:,.0f} -> {after:,.0f} cycles "
        f"({100 * (1 - after / before):.1f}% saved by ratio-rule ordering; "
        f"makespan unchanged at {reordered.test_time:,})"
    )


if __name__ == "__main__":
    main()
