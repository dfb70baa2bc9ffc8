#!/usr/bin/env python3
"""Hierarchical SOC planning (extension).

Run::

    python examples/hierarchical_soc.py

Builds a two-level design: the parent SOC embeds two pre-designed child
SOCs (each with its own cores, wrapped as mega-cores) beside three
ordinary cores.  The planner computes each child's test-time-vs-width
envelope by recursively planning it, then co-schedules children and
cores on the parent TAMs.
"""

from repro.soc.core import Core
from repro.soc.hierarchy import ChildSocCore, optimize_hierarchical
from repro.soc.soc import Soc


def leaf(name: str, chains: int, length: int, patterns: int, seed: int) -> Core:
    return Core(
        name=name,
        inputs=8,
        outputs=8,
        scan_chain_lengths=(length,) * chains,
        patterns=patterns,
        care_bit_density=0.03,
        one_fraction=0.3,
        seed=seed,
    )


def main() -> None:
    modem = Soc(
        name="modem",
        cores=(
            leaf("mdm-dfe", 16, 40, 60, 11),
            leaf("mdm-fec", 24, 30, 80, 12),
            leaf("mdm-ctrl", 6, 25, 40, 13),
        ),
    )
    gpu = Soc(
        name="gpu",
        cores=(
            leaf("gpu-sh0", 32, 35, 90, 21),
            leaf("gpu-sh1", 32, 35, 90, 22),
            leaf("gpu-tex", 20, 45, 70, 23),
            leaf("gpu-rop", 10, 30, 50, 24),
        ),
    )

    children = [ChildSocCore(modem), ChildSocCore(gpu)]
    print("child envelopes (test time at parent width grants):")
    for child in children:
        points = {w: child.test_time(w) for w in (4, 8, 12, 16)}
        row = ", ".join(f"w={w}: {t:,}" for w, t in points.items())
        print(f"  {child.name:>6}: {row}")
    print()

    top_cores = [
        leaf("cpu", 28, 40, 100, 31),
        leaf("dsp", 18, 35, 70, 32),
        leaf("io", 4, 20, 30, 33),
    ]

    for width in (16, 24, 32):
        plan = optimize_hierarchical("bigchip", children + top_cores, width)
        print(
            f"parent W={width:>2}: {plan.test_time:>9,} cycles on TAMs "
            f"{plan.tam_widths} "
            f"(children: {', '.join(plan.child_names)})"
        )
    print()

    plan = optimize_hierarchical("bigchip", children + top_cores, 24)
    print(plan.architecture.render_gantt())


if __name__ == "__main__":
    main()
