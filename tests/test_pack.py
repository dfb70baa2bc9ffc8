"""Tests for the flexible-width rectangle-packing backend (repro.pack)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.pack import (
    HEURISTICS,
    CoreRectangles,
    PackedPlan,
    PackedRect,
    RectCandidate,
    Skyline,
    core_rectangles,
    pack_rectangles,
    packed_architecture,
)
from repro.pack.packer import area_lower_bound
from repro.pack.rects import pareto_candidates
from repro.core.architecture import (
    CoreConfig,
    DecompressorPlacement,
    ScheduledCore,
    Tam,
    TestArchitecture,
)
from repro.pipeline import RunConfig, pipeline_for, plan
from repro.reporting.export import result_from_json, result_to_json
from repro.soc.industrial import load_design
from repro.soc.synthetic import synthetic_soc
from repro.verify import verify_architecture, verify_packed, verify_plan


def family(name: str, *shapes: tuple[int, int]) -> CoreRectangles:
    return CoreRectangles(
        name=name,
        candidates=tuple(RectCandidate(width=w, time=t) for w, t in shapes),
    )


def check_geometry(plan_: PackedPlan) -> None:
    """Brute-force: pairwise disjoint rectangles inside the strip."""
    for rect in plan_.rects:
        assert 0 <= rect.x
        assert rect.x + rect.width <= plan_.width_budget
        assert 0 <= rect.start <= rect.end
    for i, a in enumerate(plan_.rects):
        for b in plan_.rects[i + 1 :]:
            in_time = a.start < b.end and b.start < a.end
            in_x = a.x < b.x + b.width and b.x < a.x + a.width
            assert not (in_time and in_x), f"{a} overlaps {b}"


# ---------------------------------------------------------------------------
# Rectangle families.
# ---------------------------------------------------------------------------


class TestRectangles:
    def test_candidate_validation(self):
        with pytest.raises(ValueError):
            RectCandidate(width=0, time=5)
        with pytest.raises(ValueError):
            RectCandidate(width=1, time=-1)

    def test_family_requires_pareto_order(self):
        with pytest.raises(ValueError):
            family("c", (1, 10), (2, 10))  # time does not improve
        with pytest.raises(ValueError):
            family("c", (2, 10), (1, 20))  # width not ascending
        with pytest.raises(ValueError):
            CoreRectangles(name="c", candidates=())

    def test_family_extremes(self):
        f = family("c", (1, 30), (2, 16), (4, 9))
        assert f.narrowest == RectCandidate(1, 30)
        assert f.widest == RectCandidate(4, 9)

    def test_pareto_drops_dominated_widths(self):
        corners = pareto_candidates(
            [(1, 30), (2, 30), (3, 16), (4, 16), (5, 9)]
        )
        assert corners == (
            RectCandidate(1, 30),
            RectCandidate(3, 16),
            RectCandidate(5, 9),
        )

    def test_core_rectangles_from_time_fn(self):
        times = {1: 40, 2: 20, 3: 20, 4: 10}
        fams = core_rectangles(["a"], lambda n, w: times[w], 4)
        assert fams[0].candidates == (
            RectCandidate(1, 40),
            RectCandidate(2, 20),
            RectCandidate(4, 10),
        )

    def test_max_widths_thins_but_keeps_extremes(self):
        fams = core_rectangles(
            ["a"], lambda n, w: 100 - w, 50, max_widths=3
        )
        widths = [c.width for c in fams[0].candidates]
        assert len(widths) == 3
        assert widths[0] == 1 and widths[-1] == 50

    def test_max_widths_below_two_rejected(self):
        with pytest.raises(ValueError):
            core_rectangles(["a"], lambda n, w: 100 - w, 8, max_widths=1)


# ---------------------------------------------------------------------------
# Skyline.
# ---------------------------------------------------------------------------


class TestSkyline:
    def test_starts_flat(self):
        sky = Skyline(8)
        assert sky.makespan == 0
        assert sky.support(0, 8) == 0

    def test_place_and_support(self):
        sky = Skyline(8)
        sky.place(0, 4, 10)
        assert sky.support(0, 4) == 10
        assert sky.support(4, 4) == 0
        assert sky.support(2, 4) == 10  # straddles the step
        assert sky.makespan == 10

    def test_positions_are_segment_starts_plus_flush(self):
        sky = Skyline(8)
        sky.place(0, 3, 10)
        assert list(sky.positions(2)) == [(0, 10), (3, 0), (6, 0)]

    def test_positions_too_wide_is_empty(self):
        assert list(Skyline(4).positions(5)) == []

    def test_place_merges_equal_heights(self):
        sky = Skyline(8)
        sky.place(0, 4, 10)
        sky.place(4, 4, 10)
        assert sky.segments == (type(sky.segments[0])(0, 8, 10),)

    def test_place_below_support_rejected(self):
        sky = Skyline(8)
        sky.place(0, 4, 10)
        with pytest.raises(ValueError):
            sky.place(2, 2, 5)

    def test_out_of_strip_rejected(self):
        with pytest.raises(ValueError):
            Skyline(4).support(2, 4)


# ---------------------------------------------------------------------------
# Packer.
# ---------------------------------------------------------------------------


class TestPacker:
    FAMILIES = (
        family("alpha", (1, 60), (2, 32), (4, 18)),
        family("bravo", (1, 40), (2, 22), (3, 16)),
        family("charlie", (1, 24), (2, 13)),
        family("delta", (1, 12), (2, 7)),
    )

    @pytest.mark.parametrize("heuristic", HEURISTICS + ("auto",))
    def test_geometry_and_budget(self, heuristic):
        plan_ = pack_rectangles("toy", self.FAMILIES, 4, heuristic=heuristic)
        check_geometry(plan_)
        assert {r.name for r in plan_.rects} == {
            f.name for f in self.FAMILIES
        }
        assert plan_.placements_evaluated > 0
        assert plan_.makespan >= area_lower_bound(self.FAMILIES, 4)

    def test_deterministic(self):
        a = pack_rectangles("toy", self.FAMILIES, 4, heuristic="bottom-left")
        b = pack_rectangles("toy", self.FAMILIES, 4, heuristic="bottom-left")
        assert a == b

    def test_auto_picks_no_worse_than_either(self):
        auto = pack_rectangles("toy", self.FAMILIES, 4, heuristic="auto")
        singles = [
            pack_rectangles("toy", self.FAMILIES, 4, heuristic=h)
            for h in HEURISTICS
        ]
        assert auto.makespan == min(p.makespan for p in singles)
        assert auto.placements_evaluated == sum(
            p.placements_evaluated for p in singles
        )

    def test_single_core_sits_at_origin(self):
        plan_ = pack_rectangles(
            "one", (family("solo", (1, 20), (4, 6)),), 4
        )
        rect = plan_.rects[0]
        assert (rect.x, rect.start) == (0, 0)
        assert plan_.makespan == 6  # picks the fastest shape

    def test_unknown_heuristic_rejected(self):
        with pytest.raises(ValueError, match="unknown packing heuristic"):
            pack_rectangles("toy", self.FAMILIES, 4, heuristic="best-fit")

    def test_too_wide_family_rejected(self):
        with pytest.raises(ValueError, match="only 2 wires"):
            pack_rectangles("toy", self.FAMILIES, 2)

    def test_area_lower_bound_uses_min_area_shape(self):
        fams = (family("a", (1, 10), (2, 4)),)  # min area 8 (2x4)
        assert area_lower_bound(fams, 2) == 4

    def test_utilization_bounded(self):
        plan_ = pack_rectangles("toy", self.FAMILIES, 4)
        assert 0.0 < plan_.utilization <= 1.0


# ---------------------------------------------------------------------------
# Materialization.
# ---------------------------------------------------------------------------


def config_for(name: str, width: int, time: int) -> CoreConfig:
    return CoreConfig(
        core_name=name,
        uses_compression=False,
        wrapper_chains=width,
        code_width=None,
        test_time=time,
        volume=width * time,
    )


class TestMaterialization:
    def test_one_tam_per_rectangle(self):
        times = {("a", 2): 10, ("b", 1): 8}
        plan_ = PackedPlan(
            soc_name="toy",
            width_budget=3,
            heuristic="bottom-left",
            rects=(
                PackedRect(name="a", x=0, width=2, start=0, end=10),
                PackedRect(name="b", x=2, width=1, start=0, end=8),
            ),
        )
        arch = packed_architecture(
            plan_,
            lambda n, w: config_for(n, w, times[(n, w)]),
            placement=DecompressorPlacement.NONE,
        )
        assert [t.width for t in arch.tams] == [2, 1]
        assert arch.ate_channels == 3
        assert arch.test_time == 10
        slots = {s.config.core_name: (s.start, s.end) for s in arch.scheduled}
        assert slots == {"a": (0, 10), "b": (0, 8)}

    def test_height_mismatch_rejected(self):
        plan_ = PackedPlan(
            soc_name="toy",
            width_budget=2,
            heuristic="bottom-left",
            rects=(PackedRect(name="a", x=0, width=2, start=0, end=10),),
        )
        with pytest.raises(ValueError, match="cycles tall"):
            packed_architecture(
                plan_,
                lambda n, w: config_for(n, w, 11),
                placement=DecompressorPlacement.NONE,
            )


# ---------------------------------------------------------------------------
# Packed verification.
# ---------------------------------------------------------------------------


class TestVerifyPacked:
    def times(self, name: str, width: int) -> int:
        table = {
            ("a", 2): 10,
            ("b", 1): 8,
            ("c", 2): 5,
        }
        return table[(name, width)]

    def plan(self, **overrides) -> PackedPlan:
        fields = dict(
            soc_name="toy",
            width_budget=3,
            heuristic="bottom-left",
            rects=(
                PackedRect(name="a", x=0, width=2, start=0, end=10),
                PackedRect(name="b", x=2, width=1, start=0, end=8),
                PackedRect(name="c", x=1, width=2, start=10, end=15),
            ),
        )
        fields.update(overrides)
        return PackedPlan(**fields)

    def test_clean_plan_passes(self):
        report = verify_packed(self.plan(), ["a", "b", "c"], self.times)
        assert report.ok, report.summary()
        assert "rect-overlap" in report.checks
        assert "channel-budget" in report.checks

    def test_overlap_detected(self):
        bad = self.plan(
            rects=(
                PackedRect(name="a", x=0, width=2, start=0, end=10),
                PackedRect(name="b", x=1, width=1, start=5, end=13),
                PackedRect(name="c", x=1, width=2, start=13, end=18),
            )
        )
        report = verify_packed(bad, ["a", "b", "c"], self.times)
        assert any(v.code == "rect-overlap" for v in report.violations)

    def test_out_of_strip_detected(self):
        bad = self.plan(
            rects=(
                PackedRect(name="a", x=2, width=2, start=0, end=10),
                PackedRect(name="b", x=0, width=1, start=0, end=8),
                PackedRect(name="c", x=0, width=2, start=10, end=15),
            )
        )
        report = verify_packed(bad, ["a", "b", "c"], self.times)
        assert any(v.code == "rect-bounds" for v in report.violations)

    def test_wrong_height_detected(self):
        bad = self.plan(
            rects=(
                PackedRect(name="a", x=0, width=2, start=0, end=11),
                PackedRect(name="b", x=2, width=1, start=0, end=8),
                PackedRect(name="c", x=1, width=2, start=11, end=16),
            )
        )
        report = verify_packed(bad, ["a", "b", "c"], self.times)
        assert any(v.code == "width-support" for v in report.violations)

    def test_missing_core_detected(self):
        report = verify_packed(self.plan(), ["a", "b", "c", "d"], self.times)
        assert any(v.code == "core-membership" for v in report.violations)

    @staticmethod
    def two_tams(
        channels: int, b_start: int, offsets: tuple[int | None, int | None]
    ) -> TestArchitecture:
        """Cores a [0, 10) and b [b_start, b_start + 5) on 2-wire TAMs."""
        return TestArchitecture(
            soc_name="toy",
            placement=DecompressorPlacement.NONE,
            tams=tuple(
                Tam(index=i, width=2, offset=offset)
                for i, offset in enumerate(offsets)
            ),
            scheduled=(
                ScheduledCore(
                    config=config_for("a", 2, 10), tam_index=0, start=0, end=10
                ),
                ScheduledCore(
                    config=config_for("b", 2, 5),
                    tam_index=1,
                    start=b_start,
                    end=b_start + 5,
                ),
            ),
            ate_channels=channels,
        )

    def test_packed_width_budget_is_instantaneous(self):
        """Sum of TAM widths over budget is fine if time-shared."""
        assert not verify_architecture(self.two_tams(2, 10, (None, None))).ok
        report = verify_architecture(self.two_tams(2, 10, (0, 0)))
        assert report.ok, report.summary()
        assert "wire-overlap" in report.checks

    def test_packed_width_budget_catches_concurrent_overflow(self):
        # Two 2-wire tests at once on 3 channels: placed apart, one
        # falls off the channels ...
        report = verify_architecture(self.two_tams(3, 5, (0, 2)))
        assert [v.code for v in report.violations] == ["width-budget"]

    def test_concurrent_tams_sharing_a_wire_rejected(self):
        # ... and placed inside them, the two share a wire.
        report = verify_architecture(self.two_tams(3, 5, (0, 1)))
        assert [v.code for v in report.violations] == ["wire-overlap"]
        # One after the other they may share it.
        assert verify_architecture(self.two_tams(3, 10, (0, 1))).ok

    def test_offsets_on_only_some_tams_rejected(self):
        report = verify_architecture(self.two_tams(4, 5, (0, None)))
        assert [v.code for v in report.violations] == ["width-budget"]

    def test_time_shared_tams_count_the_wires_they_occupy(self):
        assert self.two_tams(2, 10, (0, 0)).total_tam_width == 2
        assert self.two_tams(4, 5, (0, 2)).total_tam_width == 4
        assert self.two_tams(4, 10, (1, 0)).total_tam_width == 3
        # Without offsets every TAM owns its wires, also if some have one.
        assert self.two_tams(4, 10, (None, None)).total_tam_width == 4
        assert self.two_tams(4, 10, (0, None)).total_tam_width == 4


# ---------------------------------------------------------------------------
# Pipeline integration.
# ---------------------------------------------------------------------------


PACKING = dict(architecture="packing", schedule="packing")


class TestPackingPipeline:
    def test_end_to_end_verified_plan(self):
        soc = synthetic_soc(6)
        config = RunConfig(**PACKING, verify=True)
        result = plan(soc, 12, config)
        assert result.strategy.startswith("packing-")
        assert result.partitions_evaluated > 0
        report = verify_plan(result, soc, config=config)
        assert report.ok, report.summary()

    def test_heuristic_opt_selects_rule(self):
        soc = synthetic_soc(4)
        for heuristic in HEURISTICS:
            config = RunConfig(
                **PACKING, pack_opts=(("heuristic", heuristic),)
            )
            result = plan(soc, 8, config)
            assert result.strategy == f"packing-{heuristic}"

    def test_unknown_pack_opt_rejected(self):
        soc = synthetic_soc(4)
        config = RunConfig(**PACKING, pack_opts=(("shape", "oval"),))
        with pytest.raises(ValueError, match="unknown --pack-opt"):
            plan(soc, 8, config)

    def test_unknown_heuristic_rejected(self):
        soc = synthetic_soc(4)
        config = RunConfig(**PACKING, pack_opts=(("heuristic", "nope"),))
        with pytest.raises(ValueError, match="unknown packing heuristic"):
            plan(soc, 8, config)

    def test_packing_stages_must_pair(self):
        with pytest.raises(ValueError, match="selected together"):
            pipeline_for(RunConfig(architecture="packing"))
        with pytest.raises(ValueError, match="selected together"):
            pipeline_for(RunConfig(schedule="packing"))

    def test_explicit_nonpacking_stage_selection_still_works(self):
        flavor = pipeline_for(
            RunConfig(architecture="greedy", schedule="list")
        )
        assert flavor.name == "greedy+list"

    def test_export_roundtrip_keeps_packed_strategy(self):
        soc = synthetic_soc(4)
        config = RunConfig(**PACKING)
        result = plan(soc, 8, config)
        back = result_from_json(result_to_json(result))
        assert back.strategy == result.strategy
        assert back.architecture == result.architecture
        # The serve gate path: verify the re-imported plan (the wire
        # rule engages off the exported TAM offsets).
        report = verify_plan(back, soc, config=config)
        assert report.ok, report.summary()

    def test_config_roundtrip_keeps_stage_selection(self):
        config = RunConfig(**PACKING, pack_opts=(("heuristic", "diagonal"),))
        assert RunConfig.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize("width", [16, 32])
    @pytest.mark.parametrize("design", ["System1", "System2", "synth120"])
    def test_benchmark_socs_pack_and_verify(self, design, width):
        # The designs where packing is never worse than fixed-width
        # partitions (the rectangle-packing claim of arXiv 1008.3320);
        # on d695/d2758 and System3/4 the fixed partitions win, which
        # is why they stay the default.
        soc = load_design(design)
        fixed = plan(soc, width, RunConfig(use_cache=False))
        config = RunConfig(**PACKING, use_cache=False, verify=True)
        packed = plan(soc, width, config)
        assert verify_plan(packed, soc, config=config).ok
        assert packed.test_time <= fixed.test_time


# ---------------------------------------------------------------------------
# Serve gate.
# ---------------------------------------------------------------------------


class TestPackedServeGate:
    """The service path covers packed plans end to end.

    ``execute_plan`` is the worker-side entry the planning service
    runs for every submission: config rebuilt from the wire form,
    the pipeline routed by it, and the result re-proven by the
    unconditional ``verify_plan`` gate before serialization.
    """

    def _payload(self) -> dict:
        config = RunConfig(**PACKING, use_cache=False)
        return {"design": "synth6", "width": 8, "config": config.to_dict()}

    def test_worker_plans_and_verifies_packed(self):
        from repro.serve.worker import execute_plan

        exported = json.loads(execute_plan(self._payload()))
        assert exported["optimizer"]["strategy"].startswith("packing-")

    def test_gate_rejects_corrupted_packed_plan(self):
        from repro.serve.worker import InvalidPlan, execute_plan

        payload = self._payload()
        payload["fault"] = {"corrupt_plan": "overlap"}
        with pytest.raises(InvalidPlan, match="overlap"):
            execute_plan(payload)


# ---------------------------------------------------------------------------
# CLI.
# ---------------------------------------------------------------------------


class TestPackingCli:
    def test_plan_with_packing_flags(self, capsys):
        code = main(
            [
                "plan",
                "d695",
                "--width",
                "16",
                "--architecture",
                "packing",
                "--schedule",
                "packing",
                "--pack-opt",
                "heuristic=bottom-left",
                "--verify",
                "--no-cache",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "packing-bottom-left" in out

    def test_packed_plan_reports_the_wires_it_occupies(self, capsys):
        """Its time-shared TAMs' widths sum to more than the 16 it uses."""
        code = main(
            [
                "plan",
                "d695",
                "--width",
                "16",
                "--architecture",
                "packing",
                "--schedule",
                "packing",
                "--gantt",
                "--no-cache",
            ]
        )
        assert code == 0
        assert "cycles, 16 TAM wires" in capsys.readouterr().out

    def test_mismatched_stage_flags_are_usage_error(self, capsys):
        code = main(
            [
                "plan",
                "d695",
                "--width",
                "16",
                "--architecture",
                "packing",
                "--no-cache",
            ]
        )
        assert code == 2
        assert "selected together" in capsys.readouterr().err

    def test_malformed_pack_opt_is_usage_error(self, capsys):
        code = main(
            [
                "plan",
                "d695",
                "--width",
                "16",
                "--architecture",
                "packing",
                "--schedule",
                "packing",
                "--pack-opt",
                "heuristic",
                "--no-cache",
            ]
        )
        assert code == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_verify_subcommand_plans_packed(self, capsys):
        code = main(
            [
                "verify",
                "d695",
                "--width",
                "16",
                "--architecture",
                "packing",
                "--schedule",
                "packing",
                "--no-cache",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "ok" in out

    def test_verify_exported_packed_plan(self, tmp_path, capsys):
        soc = synthetic_soc(4)
        result = plan(soc, 8, RunConfig(**PACKING))
        path = tmp_path / "packed.json"
        path.write_text(result_to_json(result), encoding="utf-8")
        code = main(["verify", "--plan", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "ok" in out
        # Sanity: the file really records the packed strategy.
        stored = json.loads(path.read_text())["optimizer"]["strategy"]
        assert stored.startswith("packing")
