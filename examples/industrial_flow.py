#!/usr/bin/env python3
"""Industrial flow: reproduce the paper's headline result on System4.

Run::

    python examples/industrial_flow.py

Plans the largest industrial system (12 cores, ~10 Gbit of raw test
data) at several TAM widths, with and without TDC, and reports the
test-time and volume reduction factors of the paper's Table 3 -- plus
the decompressor hardware bill and the ATE budget check the paper
motivates in its introduction (tester memory pressure).
"""

import repro
from repro.core.hardware import architecture_hardware_cost


def main() -> None:
    soc = repro.load_design("System4")
    print(
        f"{soc.name}: {len(soc)} industrial cores, "
        f"{soc.total_scan_cells:,} scan cells, "
        f"{soc.initial_test_data_volume / 1e9:.2f} Gbit raw test data"
    )
    print()

    header = (
        f"{'W_TAM':>6} {'tau_nc (cyc)':>14} {'tau_c (cyc)':>13} "
        f"{'time red.':>9} {'V_nc (Mbit)':>12} {'V_c (Mbit)':>11} {'vol red.':>8}"
    )
    print(header)
    print("-" * len(header))
    for width in (16, 32, 48, 64):
        plain = repro.plan(soc, width, repro.RunConfig(compression="none"))
        packed = repro.plan(soc, width, repro.RunConfig(compression="per-core"))
        print(
            f"{width:>6} {plain.test_time:>14,} {packed.test_time:>13,} "
            f"{plain.test_time / packed.test_time:>8.1f}x "
            f"{plain.test_data_volume / 1e6:>12.1f} "
            f"{packed.test_data_volume / 1e6:>11.1f} "
            f"{plain.test_data_volume / packed.test_data_volume:>7.1f}x"
        )
    print()

    # Detail of the W=32 compressed plan.
    packed = repro.plan(soc, 32, repro.RunConfig(compression="per-core"))
    print("compressed plan at W_TAM = 32:")
    print(packed.architecture.render_gantt())
    print()
    print("per-core decompressor configurations:")
    for slot in sorted(
        packed.architecture.scheduled, key=lambda s: s.config.core_name
    ):
        config = slot.config
        print(
            f"  {config.core_name:>7}: TAM{slot.tam_index} "
            f"w={config.code_width} -> m={config.wrapper_chains}, "
            f"{config.test_time:,} cycles, {config.volume / 1e6:.1f} Mbit"
        )

    cost = architecture_hardware_cost(packed.architecture)
    print(
        f"\ndecompressor hardware: {cost.gates:,} gates + "
        f"{cost.flip_flops:,} flip-flops "
        f"({100 * cost.area_fraction(soc.gates):.3f}% of the SOC)"
    )

    # The introduction's motivation: tester memory.  Check both plans
    # against a 20 MHz, 64 Mvector ATE.
    ate = repro.Ate(channels=32, memory_depth=64_000_000)
    plain = repro.plan(soc, 32, repro.RunConfig(compression="none"))
    for label, plan in (("no TDC", plain), ("with TDC", packed)):
        fit = ate.depth_for_schedule(plan.test_time)
        verdict = "fits" if fit.fits else "DOES NOT FIT"
        print(
            f"ATE check ({label}): {fit.required_depth:,} vectors needed, "
            f"{fit.available_depth:,} available -> {verdict}; "
            f"test application time {ate.seconds(plan.test_time) * 1e3:.1f} ms"
        )


if __name__ == "__main__":
    main()
