"""Every flow of ``plan()`` reproduces its golden plan on cold analyses.

The standard, constrained and per-TAM flows each run here through
``plan(soc, W, RunConfig(...))`` on cold analyses, and their exported
result must match its fingerprint in ``tests/golden_plans.json`` (see
``tests/test_golden_plans.py``, which computes the same plans on warm
analyses shared across a design's flows).  The fingerprint covers the
whole exported plan: architecture, search statistics, peak power,
budget and TAM idle cycles; ``cpu_seconds`` and the stage timings are
the only fields left out.  Invalid inputs keep their exact error
messages.
"""

from __future__ import annotations

import pytest

from repro.pipeline import RunConfig, plan
from repro.reporting.export import result_from_json, result_to_json
from repro.soc.industrial import load_design
from test_golden_plans import d695_precedence, fingerprint, golden

ALL_DESIGNS = ("d695", "d2758", "System1", "System2", "System3", "System4")

#: The constrained flow with no constraint set (exhaustive partition scan).
CONSTRAINED = RunConfig(architecture="constrained", schedule="constrained")


def _assert_golden(result, design, key):
    assert fingerprint(result) == golden()[design][key], (design, key)


@pytest.mark.parametrize("design", ALL_DESIGNS)
def test_optimize_soc_bit_identical(design):
    soc = load_design(design)
    _assert_golden(plan(soc, 16, RunConfig(compression="auto")), design, "auto@16")


@pytest.mark.parametrize("compression", ["none", "per-core", "select"])
def test_optimize_soc_modes_bit_identical(compression):
    soc = load_design("d695")
    result = plan(soc, 16, RunConfig(compression=compression))
    _assert_golden(result, "d695", f"{compression}@16")


def test_plan_entry_point_matches_legacy():
    """plan() without a config is the paper's per-core flow."""
    soc = load_design("d695")
    _assert_golden(plan(soc, 16), "d695", "per-core@16")


@pytest.mark.parametrize("design", ["d695", "System1"])
def test_constrained_bit_identical(design):
    soc = load_design(design)
    result = plan(soc, 12, RunConfig(power_budget=900.0))
    _assert_golden(result, design, "power900@12")


def test_constrained_unconstrained_bit_identical():
    """No constraints still means the exhaustive constrained scan."""
    soc = load_design("d695")
    result = plan(soc, 12, CONSTRAINED)
    _assert_golden(result, "d695", "constrained@12")


def test_constrained_precedence_bit_identical():
    soc = load_design("d695")
    result = plan(soc, 12, RunConfig(precedence=d695_precedence()))
    _assert_golden(result, "d695", "precedence@12")


@pytest.mark.parametrize("design", ["d695", "System1"])
def test_per_tam_bit_identical(design):
    soc = load_design(design)
    result = plan(soc, 12, RunConfig(compression="per-tam"))
    _assert_golden(result, design, "per-tam@12")


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(width=0, message="TAM width must be >= 1, got 0"),
        dict(
            width=16,
            compression="bogus",
            message="unknown compression mode 'bogus'",
        ),
    ],
)
def test_optimize_soc_errors_match_legacy(kwargs, tiny_soc):
    """Invalid input raises ValueError with the historical message."""
    width, message = kwargs.pop("width"), kwargs.pop("message")
    with pytest.raises(ValueError) as err:
        plan(tiny_soc, width, RunConfig(**kwargs))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(width=0, message="TAM width must be >= 1, got 0"),
        dict(
            width=2,
            min_tam_width=5,
            message="width 2 cannot host a TAM of min width 5",
        ),
    ],
)
def test_constrained_errors_match_legacy(kwargs, tiny_soc):
    width, message = kwargs.pop("width"), kwargs.pop("message")
    with pytest.raises(ValueError) as err:
        plan(tiny_soc, width, CONSTRAINED.replace(**kwargs))
    assert str(err.value) == message


def test_per_tam_errors_match_legacy(tiny_soc):
    with pytest.raises(ValueError) as err:
        plan(tiny_soc, 2, RunConfig(compression="per-tam"))
    assert str(err.value) == "ATE channels (2) below minimum code width (3)"


def test_plan_result_json_round_trip(tiny_soc):
    result = plan(tiny_soc, 8, RunConfig(compression="auto"))
    restored = result_from_json(result_to_json(result))
    assert restored == result


def test_constrained_result_json_round_trip(tiny_soc):
    result = plan(tiny_soc, 6, RunConfig(power_budget=10_000.0))
    restored = result_from_json(result_to_json(result))
    assert restored == result
    assert restored.peak_power == result.peak_power
    assert restored.tam_idle_cycles == result.tam_idle_cycles
    assert restored.stage_timings == result.stage_timings


def test_per_tam_result_json_round_trip(tiny_soc):
    result = plan(tiny_soc, 6, RunConfig(compression="per-tam"))
    restored = result_from_json(result_to_json(result))
    assert restored == result
