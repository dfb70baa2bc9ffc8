"""The structured run-event stream and its logging mirror."""

from __future__ import annotations

import logging

import pytest

from repro.pipeline import (
    EventRecorder,
    Pipeline,
    RunConfig,
    RunEvent,
    plan,
)
from repro.pipeline.stages import Stage, WrapperStage


def _collect(tiny_soc, config=None, width=8):
    events = []
    plan(tiny_soc, width, config or RunConfig(compression="auto"),
         events=events.append)
    return events


class TestEventStream:
    def test_run_and_stage_bracketing(self, tiny_soc):
        events = _collect(tiny_soc)
        kinds = [e.kind for e in events]
        assert kinds[0] == "run-start"
        assert kinds[-1] == "run-end"
        starts = [e.stage for e in events if e.kind == "stage-start"]
        ends = [e.stage for e in events if e.kind == "stage-end"]
        assert starts == ["wrapper", "decompressor", "architecture", "schedule"]
        assert ends == starts

    def test_elapsed_is_monotonic(self, tiny_soc):
        events = _collect(tiny_soc)
        elapsed = [e.elapsed for e in events]
        assert elapsed == sorted(elapsed)

    def test_payloads_carry_run_facts(self, tiny_soc):
        events = _collect(tiny_soc)
        start = events[0]
        assert start.payload["soc"] == "tiny"
        assert start.payload["width_budget"] == 8
        end = events[-1]
        assert end.payload["test_time"] > 0
        assert end.payload["strategy"]
        search = next(e for e in events if e.kind == "search-done")
        assert search.payload["partitions"] >= 1

    def test_stage_timings_on_result(self, tiny_soc):
        events = []
        result = plan(
            tiny_soc, 8, RunConfig(compression="auto"), events=events.append
        )
        ends = [e for e in events if e.kind == "stage-end"]
        assert result.stage_timings == tuple(
            (e.stage, e.payload["seconds"]) for e in ends
        )

    def test_multiple_sinks_fan_out(self, tiny_soc):
        first, second = [], []
        plan(
            tiny_soc,
            8,
            RunConfig(compression="auto"),
            events=[first.append, second.append],
        )
        assert [e.kind for e in first] == [e.kind for e in second]

    def test_cache_stats_event_reports_misses_then_hits(self, tiny_soc, tmp_path):
        config = RunConfig(compression="auto", cache_dir=str(tmp_path))
        cold = _collect(tiny_soc, config)
        cold_stats = next(e for e in cold if e.kind == "cache-stats")
        assert cold_stats.payload["misses"] >= len(tiny_soc.cores)
        assert cold_stats.payload["hits"] == 0
        assert cold_stats.payload["stores"] == len(tiny_soc.cores)

        from repro.explore.dse import clear_analysis_cache

        clear_analysis_cache()  # force the disk cache, not the memo
        warm = _collect(tiny_soc, config)
        warm_stats = next(e for e in warm if e.kind == "cache-stats")
        assert warm_stats.payload["hits"] >= len(tiny_soc.cores)
        assert warm_stats.payload["misses"] == 0
        assert warm_stats.payload["stores"] == 0

    def test_no_cache_stats_event_without_cache(self, tiny_soc):
        events = _collect(tiny_soc)  # REPRO_NO_CACHE=1 in the suite
        assert not [e for e in events if e.kind == "cache-stats"]


#: One verified plan's event stream: kind, stage and payload keys, in order.
VERIFIED_PLAN_EVENTS = [
    ("run-start", None, ("pipeline", "soc", "width_budget", "compression", "stages")),
    ("stage-start", "wrapper", ()),
    ("analyses-ready", "wrapper", ("cores", "jobs", "cached")),
    ("stage-end", "wrapper", ("seconds",)),
    ("stage-start", "decompressor", ()),
    ("tables-ready", "decompressor", ("compression", "placement")),
    ("stage-end", "decompressor", ("seconds",)),
    ("stage-start", "architecture", ()),
    ("search-done", "architecture", ("strategy", "partitions", "widths", "makespan")),
    ("stage-end", "architecture", ("seconds",)),
    ("stage-start", "schedule", ()),
    ("scheduled", "schedule", ("test_time", "tams")),
    ("stage-end", "schedule", ("seconds",)),
    ("stage-start", "verify", ()),
    ("verified", "verify", ("checks", "violations")),
    ("stage-end", "verify", ("seconds",)),
    (
        "run-end",
        None,
        ("pipeline", "soc", "test_time", "seconds", "partitions", "strategy"),
    ),
]


class TestEventStreamPinned:
    def test_kinds_order_payload_keys_and_timings(self, tiny_soc):
        events = []
        result = plan(
            tiny_soc,
            8,
            RunConfig(compression="auto", verify=True),
            events=events.append,
        )
        assert [
            (e.kind, e.stage, tuple(e.payload)) for e in events
        ] == VERIFIED_PLAN_EVENTS
        assert [stage for stage, _ in result.stage_timings] == [
            "wrapper", "decompressor", "architecture", "schedule", "verify",
        ]
        assert result.stage_timings == tuple(
            (e.stage, e.payload["seconds"]) for e in events if e.kind == "stage-end"
        )
        assert all(type(seconds) is float for _, seconds in result.stage_timings)

    def test_events_are_immutable(self, tiny_soc):
        events = []
        plan(tiny_soc, 8, RunConfig(compression="auto"), events=events.append)
        event = events[0]
        for name in ("kind", "stage", "elapsed", "payload"):
            with pytest.raises(AttributeError):
                setattr(event, name, None)
        with pytest.raises(AttributeError):
            event.extra = 1
        assert RunEvent("x", None, 0.0) == RunEvent(
            kind="x", stage=None, elapsed=0.0, payload={}
        )

    def test_a_raising_stage_emits_stage_error(self, tiny_soc):
        class Exploding(Stage):
            name = "exploding"

            def run(self, ctx):
                raise RuntimeError("boom")

        events = []
        pipeline = Pipeline([WrapperStage(), Exploding()])
        with pytest.raises(RuntimeError, match="boom"):
            pipeline.run(tiny_soc, 8, RunConfig(compression="auto"),
                         events=events.append)
        assert [(e.kind, e.stage) for e in events] == [
            ("run-start", None),
            ("stage-start", "wrapper"),
            ("analyses-ready", "wrapper"),
            ("stage-end", "wrapper"),
            ("stage-start", "exploding"),
            ("stage-error", "exploding"),
        ]
        error = events[-1].payload
        assert "boom" in error["error"] and error["seconds"] >= 0


class TestEventFormatting:
    def test_format_is_single_line(self):
        event = RunEvent(
            kind="stage-end", stage="wrapper", elapsed=0.5,
            payload={"seconds": 0.25},
        )
        text = event.format()
        assert "\n" not in text
        assert "stage-end" in text
        assert "[wrapper]" in text
        assert "seconds=0.25" in text

    def test_format_encodes_container_payloads_as_compact_json(self):
        """Regression: dict/list payload values used to print via str()."""
        event = RunEvent(
            kind="search-done", stage=None, elapsed=1.0,
            payload={"widths": [9, 7], "by_tam": {"t0": 3, "t1": 1}},
        )
        text = event.format()
        assert "widths=[9,7]" in text
        assert 'by_tam={"t0":3,"t1":1}' in text
        assert "\n" not in text

    def test_format_survives_unjsonable_values(self):
        circular: list = []
        circular.append(circular)  # json.dumps raises ValueError on this
        event = RunEvent(
            kind="x", stage=None, elapsed=0.0,
            payload={"obj": {1, 2}, "loop": circular},
        )
        text = event.format()  # must not raise
        assert "obj=" in text and "loop=" in text

    def test_stage_timings_skip_anonymous_stage_ends(self):
        """Regression: stage=None used to emit a ("", seconds) row."""
        recorder = EventRecorder()
        with recorder.stage("real"):
            pass
        recorder.emit("stage-end", seconds=9.9)  # no stage name
        recorder.emit("stage-end", "manual", seconds=2)  # named: counts
        timings = recorder.stage_timings()
        assert [stage for stage, _ in timings] == ["real", "manual"]
        assert timings[-1] == ("manual", 2.0)

    def test_stage_error_event_and_reraise(self):
        recorder = EventRecorder()
        with pytest.raises(RuntimeError, match="boom"):
            with recorder.stage("exploding"):
                raise RuntimeError("boom")
        kinds = [e.kind for e in recorder.events]
        assert kinds == ["stage-start", "stage-error"]
        assert "boom" in recorder.events[-1].payload["error"]
        # A failed stage contributes no completed timing.
        assert recorder.stage_timings() == ()


class TestLoggingMirror:
    def test_run_events_reach_the_logger(self, tiny_soc, caplog):
        with caplog.at_level(logging.INFO, logger="repro.pipeline"):
            plan(tiny_soc, 8, RunConfig(compression="auto"))
        messages = [r.message for r in caplog.records]
        assert any("run-start" in m for m in messages)
        assert any("stage-end [architecture]" in m for m in messages)
        assert any("run-end" in m for m in messages)

    def test_detail_events_are_debug_level(self, tiny_soc, caplog):
        with caplog.at_level(logging.INFO, logger="repro.pipeline"):
            plan(tiny_soc, 8, RunConfig(compression="auto"))
        assert not any("search-done" in r.message for r in caplog.records)
        with caplog.at_level(logging.DEBUG, logger="repro.pipeline"):
            plan(tiny_soc, 8, RunConfig(compression="auto"))
        assert any("search-done" in r.message for r in caplog.records)

    def test_silent_by_default(self, tiny_soc, capsys):
        """Library planning writes nothing to stdout/stderr."""
        plan(tiny_soc, 8, RunConfig(compression="auto"))
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ""
