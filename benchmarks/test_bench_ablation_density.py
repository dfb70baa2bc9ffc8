"""Ablation A4 -- care-bit density decides whether TDC pays.

The paper's Table 3 gains come from industrial cores at 1-5% care-bit
density, while the ISCAS-based d695 (44-66% density) barely benefits.
This ablation sweeps the density of an otherwise fixed SOC and locates
the crossover, explaining the d695-vs-System gap quantitatively.
"""

from conftest import run_once

from repro.pipeline import RunConfig, plan
from repro.reporting.tables import format_table
from repro.soc.core import Core
from repro.soc.soc import Soc

DENSITIES = (0.01, 0.02, 0.05, 0.10, 0.20, 0.40, 0.60)


def _soc_at_density(density: float) -> Soc:
    cores = tuple(
        Core(
            name=f"c{i}",
            inputs=12,
            outputs=12,
            scan_chain_lengths=tuple([25] * 48),
            patterns=60,
            care_bit_density=density,
            seed=500 + i,
        )
        for i in range(4)
    )
    return Soc(name=f"dens-{density}", cores=cores)


def _sweep():
    rows = []
    for density in DENSITIES:
        soc = _soc_at_density(density)
        plain = plan(soc, 16, RunConfig(compression="none"))
        packed = plan(soc, 16, RunConfig(compression="per-core"))
        auto = plan(soc, 16, RunConfig(compression="auto"))
        rows.append(
            {
                "density": density,
                "tau_nc": plain.test_time,
                "tau_c": packed.test_time,
                "tau_auto": auto.test_time,
                "gain": plain.test_time / packed.test_time,
            }
        )
    return rows


def test_density_crossover(benchmark, record):
    rows = run_once(benchmark, _sweep)
    record(
        "ablation_density.txt",
        format_table(
            ["care density", "tau no-TDC", "tau TDC", "tau auto", "gain"],
            [
                (r["density"], r["tau_nc"], r["tau_c"], r["tau_auto"], round(r["gain"], 2))
                for r in rows
            ],
            title="Ablation A4 -- TDC gain versus care-bit density (W=16)",
        ),
    )

    gains = [r["gain"] for r in rows]
    # The gain falls monotonically with density.
    assert all(b <= a * 1.02 for a, b in zip(gains, gains[1:]))
    # Industrial regime: clear win.  Dense ISCAS regime: no win.
    assert gains[0] > 3.0
    assert gains[-1] < 1.2
    # Somewhere in between the crossover happens.
    assert any(g < 1.0 for g in gains) or gains[-1] < 1.0

    # The auto (bypass) extension never loses to the no-TDC plan.
    assert all(r["tau_auto"] <= r["tau_nc"] for r in rows)
