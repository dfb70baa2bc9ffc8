"""Ablation A7 -- per-core compression-technique selection.

The authors' ATS'08 follow-up selects a compression technique per core
instead of fixing one SOC-wide.  This ablation sweeps care-bit density
and shows which of {none, selective encoding, dictionary} wins where,
plus the SOC-level effect of selection on d695 (whose dense ISCAS cores
defeat selective encoding).
"""

from conftest import run_once

from repro.pipeline import RunConfig, plan
from repro.explore.dse import analysis_for
from repro.explore.selection import select_technique
from repro.reporting.tables import format_table
from repro.soc.benchmarks import load_benchmark
from repro.soc.core import Core

DENSITIES = (0.01, 0.05, 0.15, 0.30, 0.60)


def _core_at(density: float) -> Core:
    return Core(
        name=f"sel-{density}",
        inputs=10,
        outputs=10,
        scan_chain_lengths=(30,) * 24,
        patterns=80,
        care_bit_density=density,
        one_fraction=0.4,
        seed=31,
    )


def _study():
    per_density = []
    for density in DENSITIES:
        analysis = analysis_for(_core_at(density))
        choice = select_technique(analysis, 8)
        per_density.append((density, choice))
    d695 = load_benchmark("d695")
    fixed = plan(d695, 24, RunConfig(compression="per-core"))
    auto = plan(d695, 24, RunConfig(compression="auto"))
    select = plan(d695, 24, RunConfig(compression="select"))
    return per_density, fixed, auto, select


def test_technique_selection(benchmark, record):
    per_density, fixed, auto, select = run_once(benchmark, _study)

    rows = [
        (
            density,
            choice.technique,
            choice.test_time,
            choice.wrapper_chains,
            choice.hit_rate if choice.hit_rate is not None else "-",
        )
        for density, choice in per_density
    ]
    summary = format_table(
        ["care density", "winner", "test time", "m", "dict hit rate"],
        rows,
        title="Ablation A7 -- winning technique per care density (W=8)",
    )
    soc_rows = [
        ("selective forced", fixed.test_time),
        ("auto (bypass)", auto.test_time),
        ("select (3 techniques)", select.test_time),
    ]
    summary += "\n" + format_table(
        ["d695 @ W=24", "test time"],
        soc_rows,
        title="d695: SOC-level effect of per-core technique selection",
    )
    record("ablation_selection.txt", summary)

    # Sparse cores pick a compressor; very dense cores do not keep
    # selective encoding.
    winners = {density: choice.technique for density, choice in per_density}
    assert winners[0.01] in ("selective", "dictionary")
    assert winners[0.60] != "selective"

    # Selection can only help at the SOC level.
    assert select.test_time <= auto.test_time <= fixed.test_time

    # Every scheduled core records a legal technique.
    for slot in select.architecture.scheduled:
        assert slot.config.technique in ("none", "selective", "dictionary")
