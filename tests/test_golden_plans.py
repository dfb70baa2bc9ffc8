"""Golden plan fingerprints: every flow's plans, pinned bit for bit.

Each case plans one design under one flow and width and reduces the
exported result to a fingerprint: the sha256 of ``result_to_json``
with its two timing fields (``optimizer.cpu_seconds`` and
``optimizer.stage_timings``) removed.  ``golden_plans.json`` holds the
fingerprints; a refactor of the table, search or scheduling layers
must leave every one of them unchanged.

There is one test per design, so each design's analyses are built once
and shared by all of its cases.  Regenerate the file (only when plans
are meant to change) with::

    PYTHONPATH=src python tests/test_golden_plans.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterator

import pytest

from repro.core.robust import robust_plan
from repro.pipeline import PlanResult, RunConfig, plan
from repro.power.model import power_table
from repro.reporting.export import result_to_json
from repro.soc.industrial import load_design

GOLDEN_PATH = Path(__file__).with_name("golden_plans.json")

CATALOGUE = ("d695", "d2758", "System1", "System2", "System3", "System4")
DESIGNS = CATALOGUE + ("synth100",)


def fingerprint(result: PlanResult) -> str:
    """sha256 of the exported result without its timing fields."""
    payload = json.loads(result_to_json(result))
    del payload["optimizer"]["cpu_seconds"]
    del payload["optimizer"]["stage_timings"]
    return hashlib.sha256(json.dumps(payload, indent=2).encode()).hexdigest()


def cases(design: str) -> Iterator[tuple[str, PlanResult]]:
    """``(case key, plan)`` for every pinned flow of one design."""
    soc = load_design(design)
    base = RunConfig(use_cache=False)
    if design == "synth100":
        width = 128
        searches = {
            "greedy": (),
            "anneal": (("iterations", "1000"), ("seed", "1")),
            "evolutionary": (
                ("generations", "5"),
                ("population", "12"),
                ("seed", "1"),
            ),
        }
        for strategy, options in searches.items():
            config = base.replace(strategy=strategy, search_opts=options)
            yield f"{strategy}@{width}", plan(soc, width, config)
        return
    for compression in ("per-core", "none", "auto"):
        for width in (8, 32, 64):
            config = base.replace(compression=compression)
            yield f"{compression}@{width}", plan(soc, width, config)
    if design in ("d695", "d2758"):
        yield "select@16", plan(soc, 16, base.replace(compression="select"))
    budget = 0.6 * sum(power_table(soc, compression=True).values())
    for width in (8, 16):
        yield f"power@{width}", plan(soc, width, base.replace(power_budget=budget))
        yield f"per-tam@{width}", plan(
            soc, width, base.replace(compression="per-tam")
        )
    packing = base.replace(architecture="packing", schedule="packing")
    for width in (16, 32):
        yield f"packing@{width}", plan(soc, width, packing)
    yield "robust@16", robust_plan(soc, 16, base).result


def fingerprints(design: str) -> dict[str, str]:
    return {key: fingerprint(result) for key, result in cases(design)}


@pytest.mark.parametrize("design", DESIGNS)
def test_golden_plans(design):
    golden = json.loads(GOLDEN_PATH.read_text())[design]
    actual = fingerprints(design)
    changed = sorted(key for key in golden if actual.get(key) != golden[key])
    assert set(actual) == set(golden)
    assert not changed, f"{design}: plans changed for {changed}"


if __name__ == "__main__":
    table = {design: fingerprints(design) for design in DESIGNS}
    GOLDEN_PATH.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, table.values()))} fingerprints to {GOLDEN_PATH}")
