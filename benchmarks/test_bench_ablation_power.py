"""Ablation A6 -- power-constrained scheduling and TDC's power bonus.

Two effects, both extensions of the paper:

1. a flat power budget trades test time for peak power (the classic
   power-constrained scheduling curve); and
2. the selective-encoding decompressor fills every slice with its
   majority symbol, so compressed delivery also *reduces shift power*
   versus the ATE's random-filled image -- TDC relaxes the very budget
   that throttles the schedule.
"""

from conftest import run_once

from repro.pipeline import RunConfig, plan
from repro.power.model import power_table
from repro.reporting.tables import format_table
from repro.soc.industrial import industrial_system


def _sweep():
    soc = industrial_system("System2")
    plain_power = power_table(soc, compression=False)
    packed_power = power_table(soc, compression=True)
    top = sum(plain_power.values())
    rows = []
    # The largest single core (ckt-6) is ~35% of the SOC's flat power,
    # so budgets below ~0.4x are infeasible under the flat model.
    for fraction in (1.0, 0.65, 0.5, 0.4):
        budget = top * fraction
        plain = plan(soc, 32, RunConfig(compression="none", power_budget=budget))
        packed = plan(soc, 32, RunConfig(compression="per-core", power_budget=budget))
        rows.append(
            {
                "fraction": fraction,
                "budget": budget,
                "plain_time": plain.test_time,
                "plain_peak": plain.peak_power,
                "packed_time": packed.test_time,
                "packed_peak": packed.peak_power,
            }
        )
    return rows, sum(plain_power.values()), sum(packed_power.values())


def test_power_constrained_tradeoff(benchmark, record):
    rows, plain_total, packed_total = run_once(benchmark, _sweep)
    record(
        "ablation_power.txt",
        format_table(
            [
                "budget (xSOC)",
                "tau no-TDC",
                "peak no-TDC",
                "tau TDC",
                "peak TDC",
                "TDC gain",
            ],
            [
                (
                    r["fraction"],
                    r["plain_time"],
                    round(r["plain_peak"], 1),
                    r["packed_time"],
                    round(r["packed_peak"], 1),
                    round(r["plain_time"] / r["packed_time"], 2),
                )
                for r in rows
            ],
            title=(
                "Ablation A6 -- power-constrained scheduling (System2, W=32); "
                f"total flat power {plain_total:.0f} (random fill) vs "
                f"{packed_total:.0f} (decompressor majority fill)"
            ),
        ),
    )

    # Majority fill cuts the SOC's total flat power by a large factor.
    assert packed_total < 0.25 * plain_total

    # Peaks respect every budget.
    for r in rows:
        assert r["plain_peak"] <= r["budget"] + 1e-6
        assert r["packed_peak"] <= r["budget"] + 1e-6

    # Tightening the budget never speeds anything up.
    plain_times = [r["plain_time"] for r in rows]
    packed_times = [r["packed_time"] for r in rows]
    assert all(b >= a for a, b in zip(plain_times, plain_times[1:]))
    assert all(b >= a for a, b in zip(packed_times, packed_times[1:]))

    # TDC keeps its advantage under every budget -- and because its
    # image is cooler, the advantage *grows* as the budget tightens.
    gains = [r["plain_time"] / r["packed_time"] for r in rows]
    assert all(g > 3.0 for g in gains)
    assert gains[-1] >= gains[0]
