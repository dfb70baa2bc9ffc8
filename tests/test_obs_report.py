"""The run-report artifact: construction, round-trip, rendering, CLI."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs.report import (
    REPORT_SCHEMA_VERSION,
    RunReport,
    render_report,
    session_report,
)
from repro.pipeline import RunConfig, plan
from repro.reporting.export import result_from_json, result_to_json


@pytest.fixture(scope="module")
def module_soc():
    """The conftest tiny SOC, rebuilt module-scoped for reuse here."""
    from repro.soc.core import Core
    from repro.soc.soc import Soc

    return Soc(
        name="tiny",
        cores=(
            Core(
                name="small", inputs=6, outputs=4,
                scan_chain_lengths=(12, 10, 9, 7), patterns=20,
                care_bit_density=0.3, seed=42,
            ),
            Core(
                name="comb", inputs=16, outputs=8, patterns=10,
                care_bit_density=0.7, seed=7,
            ),
            Core(
                name="sparse", inputs=10, outputs=10,
                scan_chain_lengths=tuple([40] * 12), patterns=50,
                care_bit_density=0.03, seed=11,
            ),
        ),
    )


@pytest.fixture(scope="module")
def observed(module_soc):
    """One tiny-SOC run with observability on: (result, context)."""
    with obs.enabled() as active:
        result = plan(module_soc, 8, RunConfig(compression="auto"))
    return result, active


class TestReportAttachment:
    def test_no_report_while_disabled(self, tiny_soc):
        result = plan(tiny_soc, 8, RunConfig(compression="auto"))
        assert result.report is None

    def test_report_attached_when_enabled(self, observed):
        result, _ = observed
        report = result.report
        assert isinstance(report, RunReport)
        assert report.soc_name == "tiny"
        assert report.width_budget == 8
        assert report.test_time == result.test_time
        assert report.test_data_volume == result.architecture.test_data_volume

    def test_stage_timings_match_result(self, observed):
        result, _ = observed
        assert result.report.stage_timings == result.stage_timings
        stages = [stage for stage, _ in result.report.stage_timings]
        assert stages == ["wrapper", "decompressor", "architecture", "schedule"]

    def test_metrics_totals_are_differential(self, observed):
        """Report counters equal the result's own bookkeeping."""
        result, _ = observed
        counters = result.report.metrics["counters"]
        assert counters["architecture.partitions_evaluated"] == (
            result.partitions_evaluated
        )
        assert counters["schedule.cores_scheduled"] == len(
            result.architecture.scheduled
        )
        assert counters["analysis.cores_requested"] == 3  # tiny has 3 cores

    def test_caches_section_has_wrapper_and_tables(self, observed):
        result, _ = observed
        caches = result.report.caches
        assert {"hits", "misses", "entries"} <= set(caches["wrapper_lru"])

    def test_tam_utilization_rows(self, observed):
        result, _ = observed
        rows = result.report.tam_utilization
        assert len(rows) == len(result.architecture.tams)
        for row in rows:
            wasted = (row["total_cycles"] - row["busy_cycles"]) * row["width"]
            assert row["wire_cycles_wasted"] == wasted
            assert 0.0 <= row["utilization"] <= 1.0

    def test_event_counts_census(self, observed):
        result, _ = observed
        counts = result.report.event_counts
        assert counts["run-start"] == 1
        assert counts["run-end"] == 1
        assert counts["stage-end"] == 4

    def test_last_report_and_run_count_on_context(self, observed):
        result, active = observed
        assert active.run_count == 1
        assert active.last_report is result.report


class TestRoundTrip:
    def test_json_round_trip_is_lossless(self, observed):
        result, _ = observed
        report = result.report
        assert RunReport.from_json(report.to_json()) == report

    def test_dict_has_schema_and_kind(self, observed):
        result, _ = observed
        data = result.report.to_dict()
        assert data["schema"] == REPORT_SCHEMA_VERSION
        assert data["kind"] == "run-report"
        json.dumps(data)  # JSON-clean all the way down

    def test_unknown_schema_is_rejected(self, observed):
        result, _ = observed
        data = result.report.to_dict()
        data["schema"] = 999
        with pytest.raises(ValueError, match="schema"):
            RunReport.from_dict(data)

    def test_result_export_carries_the_report(self, observed):
        result, _ = observed
        restored = result_from_json(result_to_json(result))
        assert restored == result  # PlanResult equality ignores .report
        assert restored.report == result.report

    def test_export_without_report_restores_none(self, tiny_soc):
        result = plan(tiny_soc, 8, RunConfig(compression="auto"))
        restored = result_from_json(result_to_json(result))
        assert restored.report is None


class TestRendering:
    def test_render_contains_all_tables(self, observed):
        result, _ = observed
        text = render_report(result.report)
        assert "run report: tiny at W=8" in text
        for title in ("stage timings", "metrics", "caches", "TAM utilization"):
            assert title in text
        assert "architecture.partitions_evaluated" in text

    def test_session_report_shape(self, observed):
        _, active = observed
        data = session_report(active)
        assert data["kind"] == "session-report"
        assert data["schema"] == REPORT_SCHEMA_VERSION
        assert data["span_count"] == len(active.tracer.spans)
        json.dumps(data)


class TestReportSubcommand:
    def test_renders_saved_report(self, observed, tmp_path, capsys):
        from repro.cli import main

        result, _ = observed
        path = tmp_path / "report.json"
        path.write_text(result.report.to_json() + "\n")
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "run report: tiny" in out
        assert "TAM utilization" in out

    def test_renders_report_embedded_in_result_export(
        self, observed, tmp_path, capsys
    ):
        from repro.cli import main

        result, _ = observed
        path = tmp_path / "export.json"
        path.write_text(result_to_json(result) + "\n")
        assert main(["report", str(path)]) == 0
        assert "run report: tiny" in capsys.readouterr().out

    def test_rejects_non_report_json(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "junk.json"
        path.write_text('{"hello": "world"}\n')
        assert main(["report", str(path)]) == 2
        assert "not a run report" in capsys.readouterr().err
