"""Ablation A3 -- decompressor hardware cost versus test-time gain.

The paper argues the selective-encoding decompressor is cheap (a
5-FF/23-gate controller plus width-dependent mapping, under 1% of a
million-gate core).  This bench plans System2 with TDC, tallies the
implied decompressor instances, and relates the silicon cost to the
test-time gain.
"""

from conftest import run_once

from repro.core.hardware import architecture_hardware_cost, decompressor_cost
from repro.pipeline import RunConfig, plan
from repro.reporting.tables import format_table
from repro.soc.industrial import industrial_system


def _plan():
    soc = industrial_system("System2")
    plain = plan(soc, 32, RunConfig(compression="none"))
    packed = plan(soc, 32, RunConfig(compression="per-core"))
    return soc, plain, packed


def test_hardware_cost_vs_gain(benchmark, record):
    soc, plain, packed = run_once(benchmark, _plan)

    rows = []
    for slot in packed.architecture.scheduled:
        config = slot.config
        if not config.uses_compression:
            continue
        cost = decompressor_cost(config.wrapper_chains, config.code_width)
        core = soc.core(config.core_name)
        rows.append(
            (
                config.core_name,
                config.code_width,
                config.wrapper_chains,
                cost.gates,
                cost.flip_flops,
                round(100 * cost.area_fraction(core.gates), 3),
            )
        )
    total = architecture_hardware_cost(packed.architecture)
    gain = plain.test_time / packed.test_time
    table = format_table(
        ["core", "w", "m", "gates", "flip-flops", "area %"],
        rows,
        title=(
            "Ablation A3 -- System2 at W=32: decompressor cost per core "
            f"(total {total.gates} gates + {total.flip_flops} FFs buys a "
            f"{gain:.1f}x test-time gain)"
        ),
    )
    record("ablation_hardware.txt", table)

    # Every instance stays below 1% of its core.
    assert all(area < 1.0 for *_, area in rows)
    # The whole TDC infrastructure is below 1% of the SOC.
    assert total.area_fraction(soc.gates) < 0.01
    # And it buys a large test-time gain.
    assert gain > 3.0


def test_cost_scales_with_interface(benchmark, record):
    def sweep():
        return [(m, decompressor_cost(m)) for m in (16, 64, 128, 256, 512)]

    results = run_once(benchmark, sweep)
    record(
        "ablation_hardware_scaling.txt",
        format_table(
            ["m", "w", "gates", "flip-flops"],
            [(m, c.code_width, c.gates, c.flip_flops) for m, c in results],
            title="Ablation A3b -- decompressor cost scaling",
        ),
    )
    gates = [c.gates for _, c in results]
    assert all(b > a for a, b in zip(gates, gates[1:]))
