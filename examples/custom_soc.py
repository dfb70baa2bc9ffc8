#!/usr/bin/env python3
"""Bring your own design: write a .soc file, load it, and plan it.

Run::

    python examples/custom_soc.py

Shows the full external-user workflow: author an ITC'02-style ``.soc``
description for a three-core design, parse it, sweep TAM width budgets,
compare the three decompressor placements, and export the planned
architecture summary.
"""

import pathlib
import tempfile

import repro
from repro.core.architecture import architecture_summary
from repro.core.soclevel import optimize_soc_level_decompressor

DESIGN = """\
SocName my_chip
# A CPU-like core: many short chains, sparse ATPG cubes.
Module 1 cpu
  Inputs 96
  Outputs 64
  ScanChains 48 : 44 44 44 44 43 43 43 43 42 42 42 42 41 41 41 41 \
                  40 40 40 40 40 40 40 40 39 39 39 39 39 39 39 39 \
                  38 38 38 38 38 38 38 38 37 37 37 37 37 37 37 37
  Patterns 400
  CareBitDensity 0.02
  OneFraction 0.3
  Seed 1
End
# A DSP block: fewer, longer chains.
Module 2 dsp
  Inputs 48
  Outputs 48
  ScanChains 16 : 120 118 116 114 112 110 108 106 104 102 100 98 96 94 92 90
  Patterns 250
  CareBitDensity 0.03
  Seed 2
End
# A small dense legacy peripheral.
Module 3 uart
  Inputs 12
  Outputs 10
  ScanChains 2 : 40 38
  Patterns 80
  CareBitDensity 0.45
  Seed 3
End
"""


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "my_chip.soc"
        path.write_text(DESIGN, encoding="utf-8")
        soc = repro.parse_soc_file(path)

    print(soc.describe())
    print()

    print("TAM width sweep (auto compression, each core keeps what pays):")
    for width in (8, 12, 16, 24, 32):
        plan = repro.plan(soc, width, repro.RunConfig(compression="auto"))
        compressed = sum(
            1 for s in plan.architecture.scheduled if s.config.uses_compression
        )
        print(
            f"  W={width:>2}: {plan.test_time:>8,} cycles, "
            f"TAMs {plan.tam_widths}, {compressed}/{len(soc)} cores compressed"
        )
    print()

    budget = 16
    print(f"decompressor placement comparison at a {budget}-wire budget:")
    placements = {
        "(a) no TDC": "none",
        "(c) per-core TDC": "per-core",
        "(b) per-TAM TDC": "per-tam",
    }
    plans = {
        label: repro.plan(soc, budget, repro.RunConfig(compression=mode))
        for label, mode in placements.items()
    }
    plans["soc-level TDC"] = optimize_soc_level_decompressor(soc, budget)
    for label, plan in plans.items():
        print(
            f"  {label:<17}: {plan.test_time:>8,} cycles, "
            f"{plan.architecture.total_tam_width:>4} on-chip TAM wires, "
            f"{plan.architecture.ate_channels:>3} ATE channels"
        )
    print()

    best = repro.plan(soc, budget, repro.RunConfig(compression="auto"))
    print(architecture_summary(best.architecture))
    print(best.architecture.render_gantt())


if __name__ == "__main__":
    main()
