"""Tests for JSON export/import of planned architectures."""

import json

import pytest

import repro
from repro.reporting.export import (
    SCHEMA_VERSION,
    architecture_from_json,
    architecture_to_dict,
    architecture_to_json,
    result_to_dict,
    result_to_json,
)


@pytest.fixture(scope="module")
def plan():
    soc = repro.load_design("d695")
    return repro.plan(soc, 12, repro.RunConfig(compression="auto"))


class TestExport:
    def test_dict_fields(self, plan):
        data = architecture_to_dict(plan.architecture)
        assert data["schema"] == SCHEMA_VERSION
        assert data["soc"] == "d695"
        assert data["test_time"] == plan.test_time
        assert len(data["schedule"]) == 10

    def test_schedule_sorted_by_tam_then_start(self, plan):
        data = architecture_to_dict(plan.architecture)
        keys = [(e["tam"], e["start"]) for e in data["schedule"]]
        assert keys == sorted(keys)

    def test_json_parses(self, plan):
        parsed = json.loads(architecture_to_json(plan.architecture))
        assert parsed["soc"] == "d695"

    def test_result_provenance(self, plan):
        data = result_to_dict(plan)
        assert data["optimizer"]["compression"] == "auto"
        assert data["optimizer"]["width_budget"] == 12
        assert data["optimizer"]["partitions_evaluated"] > 0
        json.loads(result_to_json(plan))  # round-trips through json


class TestImport:
    def test_roundtrip_preserves_everything(self, plan):
        text = architecture_to_json(plan.architecture)
        rebuilt = architecture_from_json(text)
        assert rebuilt.soc_name == plan.architecture.soc_name
        assert rebuilt.test_time == plan.test_time
        assert rebuilt.test_data_volume == plan.architecture.test_data_volume
        assert rebuilt.tams == plan.architecture.tams
        assert set(rebuilt.cores_per_tam.items()) == set(
            plan.architecture.cores_per_tam.items()
        )

    def test_technique_survives(self, plan):
        rebuilt = architecture_from_json(architecture_to_json(plan.architecture))
        for name in ("s5378", "s38417"):
            assert (
                rebuilt.config_for(name).technique
                == plan.architecture.config_for(name).technique
            )

    def test_rejects_unknown_schema(self, plan):
        data = architecture_to_dict(plan.architecture)
        data["schema"] = 99
        with pytest.raises(ValueError, match="unsupported schema"):
            architecture_from_json(json.dumps(data))

    def test_rebuilt_validates_overlaps(self, plan):
        """Corrupt timing must be caught by the architecture invariants."""
        data = architecture_to_dict(plan.architecture)
        busiest = max(
            {e["tam"] for e in data["schedule"]},
            key=lambda t: sum(1 for e in data["schedule"] if e["tam"] == t),
        )
        slots = [e for e in data["schedule"] if e["tam"] == busiest]
        if len(slots) >= 2:
            duration = slots[1]["end"] - slots[1]["start"]
            slots[1]["start"] = slots[0]["start"]
            slots[1]["end"] = slots[0]["start"] + duration
            with pytest.raises(ValueError, match="overlap"):
                architecture_from_json(json.dumps(data))
