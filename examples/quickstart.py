#!/usr/bin/env python3
"""Quickstart: plan the d695 benchmark SOC with and without compression.

Run::

    python examples/quickstart.py

Loads the embedded d695 benchmark, co-optimizes its test architecture at
a 32-wire TAM budget in three modes (no TDC / per-core decompressors /
auto bypass), and prints the resulting schedules.  Every plan goes
through ``repro.plan(soc, W, repro.RunConfig(...))``, the one entry
point; the mode is a ``RunConfig`` field.
"""

import repro


def main() -> None:
    soc = repro.load_design("d695")
    print(soc.describe())
    print()

    width = 32
    for mode, label in (
        ("none", "without compression (Figure 4(a) style)"),
        ("per-core", "with per-core decompressors (the paper's proposal)"),
        ("auto", "auto: each core keeps its faster option"),
    ):
        plan = repro.plan(soc, width, repro.RunConfig(compression=mode))
        print(f"--- {label} ---")
        print(
            f"test time: {plan.test_time} cycles | "
            f"TAM partition: {plan.tam_widths} | "
            f"ATE volume: {plan.test_data_volume / 1e6:.2f} Mbit | "
            f"planned in {plan.cpu_seconds:.2f} s "
            f"({plan.partitions_evaluated} partitions, {plan.strategy})"
        )
        print(plan.architecture.render_gantt())
        print()

    # Inspect one core's configuration in the auto plan.
    plan = repro.plan(soc, width, repro.RunConfig(compression="auto"))
    config = plan.architecture.config_for("s38417")
    if config.uses_compression:
        print(
            f"s38417 uses a decompressor: {config.code_width} TAM wires -> "
            f"{config.wrapper_chains} wrapper chains"
        )
    else:
        print(
            "s38417 bypasses compression (its cubes are too dense to pay "
            f"off); it uses {config.wrapper_chains} wrapper chains directly"
        )


if __name__ == "__main__":
    main()
