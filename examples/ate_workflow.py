#!/usr/bin/env python3
"""End-to-end ATE hand-off workflow.

Run::

    python examples/ate_workflow.py

The production-facing path through the library: exchange test cubes as
files, plan the SOC, check the tester, truncate if memory is short,
compare the bus-based transport alternative, and export the final plan
as JSON for downstream tooling.
"""

import pathlib
import tempfile

import repro
from repro.core.bus import optimize_bus
from repro.explore.dse import analysis_for
from repro.quality.truncation import truncate_for_depth
from repro.soc.core import Core
from repro.soc.soc import Soc


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Cubes as files: write the synthetic set out, read it back in,
    #    and hand the external cubes to the exact analysis.
    core = Core(
        name="dsp",
        inputs=24,
        outputs=24,
        scan_chain_lengths=(50,) * 20,
        patterns=120,
        care_bit_density=0.03,
        one_fraction=0.3,
        seed=5,
    )
    cubes = repro.generate_cubes(core)
    with tempfile.TemporaryDirectory() as tmp:
        npz = pathlib.Path(tmp) / "dsp.npz"
        txt = pathlib.Path(tmp) / "dsp.pat"
        repro.save_cubes_npz(cubes, npz)
        repro.write_patterns(cubes, txt)
        reloaded = repro.load_cubes_npz(npz)
        from_text = repro.read_patterns(core, txt)
    assert (reloaded.bits == cubes.bits).all()
    assert (from_text.bits == cubes.bits).all()
    analysis = analysis_for(core, cubes=reloaded)
    best = analysis.best_compressed_for_tam(10)
    print(
        f"1. cube files round-trip; external-cube analysis: "
        f"w={best.code_width}, m={best.m}, tau={best.test_time:,}"
    )

    # ------------------------------------------------------------------
    # 2. Plan a small SOC and check it against a tester.
    soc = Soc(
        name="product",
        cores=(
            core,
            Core(
                name="cpu",
                inputs=32,
                outputs=32,
                scan_chain_lengths=(40,) * 36,
                patterns=200,
                care_bit_density=0.02,
                one_fraction=0.3,
                seed=6,
            ),
            Core(
                name="io",
                inputs=10,
                outputs=10,
                scan_chain_lengths=(30, 28),
                patterns=50,
                care_bit_density=0.3,
                seed=7,
            ),
        ),
    )
    plan = repro.plan(soc, 16, repro.RunConfig(compression="select"))
    ate = repro.Ate(channels=16, memory_depth=6_000, clock_hz=25e6)
    fit = ate.depth_for_schedule(plan.test_time)
    print(
        f"2. plan: {plan.test_time:,} cycles on TAMs {plan.tam_widths}; "
        f"tester depth {ate.memory_depth:,} -> "
        f"{'fits' if fit.fits else 'does NOT fit'}"
    )

    # ------------------------------------------------------------------
    # 3. Memory is short: truncate for the depth and report the quality.
    if not fit.fits:
        result = truncate_for_depth(soc, plan, ate.memory_depth)
        kept = {n: result.pattern_counts[n] for n in soc.core_names}
        print(
            f"3. truncated to {result.makespan:,} cycles "
            f"(fits={result.fits}); quality {result.full_quality:.4f} -> "
            f"{result.quality:.4f}; patterns kept: {kept}"
        )

    # ------------------------------------------------------------------
    # 4. Alternative transport: one shared bus instead of TAMs.
    bus = optimize_bus(soc, 16, compression="per-core")
    print(
        f"4. shared 16-bit bus: {bus.test_time:,} cycles "
        f"(rates {bus.rates}, {bus.tightness:.2f}x its bandwidth bound) "
        f"vs {plan.test_time:,} on dedicated TAMs"
    )

    # ------------------------------------------------------------------
    # 5. Export the chosen plan for downstream tooling.
    payload = repro.result_to_json(plan)
    rebuilt = repro.architecture_from_json(payload)
    print(
        f"5. exported {len(payload):,} bytes of JSON; re-import checks out "
        f"(test time {rebuilt.test_time:,})"
    )


if __name__ == "__main__":
    main()
