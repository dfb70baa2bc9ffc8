"""Ablation A9 -- shared bus versus dedicated TAMs.

The authors' companion work moves test data over one time-multiplexed
bus instead of spatially partitioned TAMs.  Fluid bandwidth sharing
subsumes any fixed partition, so the bus plan should match or beat the
TAM plan at every width; the interesting output is *by how much*, and
how close both sit to the bandwidth lower bound.
"""

from conftest import run_once

from repro.core.bus import optimize_bus
from repro.pipeline import RunConfig, plan
from repro.reporting.tables import format_table
from repro.soc.industrial import industrial_system

WIDTHS = (16, 24, 32)


def _study():
    soc = industrial_system("System2")
    rows = []
    for width in WIDTHS:
        tam = plan(soc, width, RunConfig(compression="per-core"))
        bus = optimize_bus(soc, width, compression="per-core")
        rows.append(
            {
                "width": width,
                "tam_time": tam.test_time,
                "bus_time": bus.test_time,
                "bound": bus.lower_bound,
                "tightness": bus.tightness,
                "rates": dict(sorted(bus.rates.items())),
            }
        )
    return rows


def test_bus_vs_tam(benchmark, record):
    rows = run_once(benchmark, _study)
    record(
        "ablation_bus.txt",
        format_table(
            [
                "width",
                "tau dedicated TAMs",
                "tau shared bus",
                "bus/TAM",
                "bandwidth bound",
                "bus tightness",
            ],
            [
                (
                    r["width"],
                    r["tam_time"],
                    r["bus_time"],
                    round(r["bus_time"] / r["tam_time"], 3),
                    r["bound"],
                    round(r["tightness"], 3),
                )
                for r in rows
            ],
            title="Ablation A9 -- System2 with TDC: bus vs dedicated TAMs",
        ),
    )

    for r in rows:
        # The bus never loses badly, and often wins.
        assert r["bus_time"] <= r["tam_time"] * 1.10, r
        # Both respect the bandwidth lower bound; the bus sits close.
        assert r["bus_time"] >= r["bound"]
        assert r["tightness"] <= 1.6

    times = [r["bus_time"] for r in rows]
    assert all(b <= a for a, b in zip(times, times[1:]))
