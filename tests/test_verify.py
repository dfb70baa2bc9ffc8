"""Tests for the independent plan verifier across its delivery paths.

Covers the public checkers (:func:`verify_plan`,
:func:`verify_architecture`, :func:`verify_constrained`), the
corruption helpers that feed them negative cases, the opt-in pipeline
stage, the ``repro-soc verify`` CLI subcommand, and the service's
verification gate.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json

import pytest

from repro.cli import main
from repro.core.scheduler import schedule_cores
from repro.core.timeline import schedule_constrained, schedule_preemptive
from repro.pipeline import RunConfig, plan
from repro.reporting.export import result_to_json
from repro.serve import JobState, PlanningService, PlanRequest, ServiceSettings
from repro.soc.industrial import load_design
from repro.verify import (
    CORRUPTION_MODES,
    PlanVerificationError,
    corrupt_architecture,
    corrupt_result,
    verify_architecture,
    verify_constrained,
    verify_plan,
)

_CONFIG = RunConfig(compression="per-core", use_cache=False)


@pytest.fixture(scope="module")
def d695_plan():
    soc = load_design("d695")
    return soc, plan(soc, 16, _CONFIG)


@pytest.fixture
def tiny_plan(tiny_soc):
    return plan(tiny_soc, 8, _CONFIG)


class TestVerifyPlanClean:
    def test_tiny_soc_all_compressions(self, tiny_soc):
        for compression in ("per-core", "none", "select", "per-tam"):
            config = RunConfig(compression=compression, use_cache=False)
            result = plan(tiny_soc, 8, config)
            report = verify_plan(result, tiny_soc, config=config)
            assert report.ok, (compression, report.summary())
            # Model checks actually ran, not just the structural ones.
            assert "time-model" in report.checks
            assert "volume-model" in report.checks

    def test_benchmark_plan(self, d695_plan):
        soc, result = d695_plan
        report = verify_plan(result, soc, config=_CONFIG)
        assert report.ok, report.summary()
        assert report.summary().endswith("checks)")

    def test_power_constrained_plan(self, tiny_soc):
        from repro.power.model import power_table

        budget = sum(power_table(tiny_soc, compression=True).values())
        config = RunConfig(power_budget=budget, use_cache=False)
        result = plan(tiny_soc, 8, config)
        report = verify_plan(result, tiny_soc, config=config)
        assert report.ok, report.summary()
        assert "power-budget" in report.checks
        assert "peak-power" in report.checks

    def test_structural_only_without_soc(self, tiny_plan):
        report = verify_plan(tiny_plan)
        assert report.ok, report.summary()
        assert "time-model" not in report.checks
        assert "tam-overlap" in report.checks


class TestCorruptionDetected:
    def test_overlap(self, tiny_soc, tiny_plan):
        bad = corrupt_result(tiny_plan, "overlap")
        report = verify_plan(bad, tiny_soc, config=_CONFIG)
        codes = {v.code for v in report.violations}
        assert "tam-overlap" in codes

    def test_inflate_makespan(self, tiny_soc, tiny_plan):
        bad = corrupt_result(tiny_plan, "inflate-makespan")
        report = verify_plan(bad, tiny_soc, config=_CONFIG)
        codes = {v.code for v in report.violations}
        assert "time-model" in codes

    def test_power_overrun(self, tiny_soc):
        from repro.power.model import power_table

        budget = sum(power_table(tiny_soc, compression=True).values())
        config = RunConfig(power_budget=budget, use_cache=False)
        result = plan(tiny_soc, 8, config)
        bad = corrupt_result(result, "power-overrun")
        report = verify_plan(bad, tiny_soc, config=config)
        codes = {v.code for v in report.violations}
        assert "power-budget" in codes

    def test_every_mode_is_exercised(self):
        assert set(CORRUPTION_MODES) == {
            "overlap",
            "inflate-makespan",
            "power-overrun",
        }

    def test_originals_never_mutated(self, tiny_soc, tiny_plan):
        before = result_to_json(tiny_plan)
        corrupt_result(tiny_plan, "overlap")
        corrupt_result(tiny_plan, "inflate-makespan")
        assert result_to_json(tiny_plan) == before
        assert verify_plan(tiny_plan, tiny_soc, config=_CONFIG).ok

    def test_raise_if_violations(self, tiny_soc, tiny_plan):
        bad = corrupt_result(tiny_plan, "overlap")
        report = verify_plan(bad, tiny_soc, config=_CONFIG)
        with pytest.raises(PlanVerificationError) as excinfo:
            report.raise_if_violations()
        assert excinfo.value.report is report
        assert "tam-overlap" in str(excinfo.value)

    def test_corrupt_architecture_caught_structurally(self, tiny_plan):
        bad = corrupt_architecture(tiny_plan.architecture, "overlap")
        report = verify_architecture(bad)
        assert not report.ok
        assert any(v.code == "tam-overlap" for v in report.violations)

    def test_unknown_mode_rejected(self, tiny_plan):
        with pytest.raises(ValueError, match="unknown corruption"):
            corrupt_result(tiny_plan, "no-such-mode")


class TestScheduleCheckers:
    TIMES = {"a": 9, "b": 7, "c": 5}

    @classmethod
    def time_of(cls, name, width):
        return -(-cls.TIMES[name] // width)

    def test_constrained_clean_and_tampered(self):
        names = sorted(self.TIMES)
        schedule = schedule_constrained(names, [1, 2], self.time_of)
        assert verify_constrained(schedule, names, self.time_of).ok
        tampered = dataclasses.replace(
            schedule, makespan=schedule.makespan + 1
        )
        report = verify_constrained(tampered, names, self.time_of)
        assert any(v.code == "makespan" for v in report.violations)

    def test_constrained_matches_plain_scheduler(self):
        names = sorted(self.TIMES)
        plain = schedule_cores(names, (1, 2), self.time_of)
        constrained = schedule_constrained(names, [1, 2], self.time_of)
        assert constrained.makespan == plain.makespan

    def test_preemptive_clean_and_tampered(self):
        names = sorted(self.TIMES)
        power = {n: 2.0 for n in names}
        schedule = schedule_preemptive(
            names,
            [1, 1],
            self.time_of,
            power_of=power,
            power_budget=3.0,
            max_segments=3,
        )
        report = verify_constrained(
            schedule,
            names,
            self.time_of,
            power_of=power,
            power_budget=3.0,
            max_segments=3,
        )
        assert report.ok, report.summary()
        tampered = dataclasses.replace(
            schedule, peak_power=schedule.peak_power + 1.0
        )
        report = verify_constrained(
            tampered, names, self.time_of, power_of=power
        )
        assert any(v.code == "peak-power" for v in report.violations)

    def test_preemptive_segment_at_negative_time_reported(self):
        names = sorted(self.TIMES)
        schedule = schedule_preemptive(names, [1, 1], self.time_of)
        (c,) = schedule.segments_for("c")
        moved = dataclasses.replace(c, start=-20, end=-15)
        tampered = dataclasses.replace(
            schedule,
            segments=tuple(moved if s is c else s for s in schedule.segments),
        )
        report = verify_constrained(tampered, names, self.time_of)
        assert any(v.code == "slot-bounds" for v in report.violations)

    def test_missing_core_reported(self):
        schedule = schedule_constrained(["a", "b"], [1], self.time_of)
        report = verify_constrained(schedule, ["a", "b", "c"], self.time_of)
        assert any(
            v.code == "core-membership" for v in report.violations
        )


class TestVerifyStage:
    def test_verified_plan_identical_to_unverified(self, tiny_soc):
        base = plan(tiny_soc, 8, _CONFIG)
        checked = plan(tiny_soc, 8, _CONFIG.replace(verify=True))
        assert checked.test_time == base.test_time
        assert checked.architecture == base.architecture


class TestCli:
    def test_verify_design(self, capsys):
        assert main(["verify", "d695", "--width", "16"]) == 0
        out = capsys.readouterr().out
        assert "plan:d695: ok" in out

    def test_verify_requires_design_or_plan(self, capsys):
        assert main(["verify"]) == 2

    def test_verify_clean_export(self, tmp_path, capsys, d695_plan):
        _, result = d695_plan
        path = tmp_path / "plan.json"
        path.write_text(result_to_json(result))
        assert main(["verify", "--plan", str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_verify_corrupted_export(self, tmp_path, capsys, d695_plan):
        _, result = d695_plan
        bad = corrupt_result(result, "inflate-makespan")
        path = tmp_path / "bad.json"
        path.write_text(result_to_json(bad))
        assert main(["verify", "--plan", str(path)]) == 1
        assert "time-model" in capsys.readouterr().out

    def test_verify_rejects_garbage(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text(json.dumps({"schema": 1, "soc": "x"}))
        assert main(["verify", "--plan", str(path)]) == 2
        assert "rejected" in capsys.readouterr().err

    def test_plan_verify_flag(self, capsys):
        assert main(["plan", "d695", "--width", "16", "--verify"]) == 0


class TestServeGate:
    @pytest.fixture
    def checks(self, monkeypatch):
        """Every ``verify_architecture`` call, by the stage or by ``verify_plan``."""
        import repro.verify
        import repro.verify.invariants as invariants

        calls = []
        real = invariants.verify_architecture

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(invariants, "verify_architecture", counting)
        monkeypatch.setattr(repro.verify, "verify_architecture", counting)
        return calls

    @pytest.mark.parametrize("verify", [False, True])
    def test_worker_verifies_a_plan_once(self, checks, verify):
        from repro.serve.worker import execute_plan

        config = RunConfig(use_cache=False, verify=verify)
        payload = {"design": "d695", "width": 16, "config": config.to_dict()}
        assert json.loads(execute_plan(payload))["soc"] == "d695"
        assert len(checks) == 1

    def test_worker_checks_a_plan_whose_verify_stage_was_replaced(self, checks):
        from repro.pipeline import Stage, VerifyStage, register_stage
        from repro.serve.worker import execute_plan

        class Lenient(Stage):
            name = "verify"

            def run(self, ctx):
                pass

        config = RunConfig(use_cache=False, verify=True)
        payload = {"design": "d695", "width": 16, "config": config.to_dict()}
        register_stage("verify", "invariants", Lenient)
        try:
            execute_plan(payload)
        finally:
            register_stage("verify", "invariants", VerifyStage)
        assert len(checks) == 1

    def test_worker_rechecks_a_corrupted_verified_plan(self, checks):
        from repro.serve.worker import InvalidPlan, execute_plan

        config = RunConfig(use_cache=False, verify=True)
        payload = {
            "design": "d695",
            "width": 16,
            "config": config.to_dict(),
            "fault": {"corrupt_plan": "overlap"},
        }
        with pytest.raises(InvalidPlan, match="overlap"):
            execute_plan(payload)
        assert len(checks) == 2

    def test_corrupted_verified_plan_is_an_invalid_plan_job(self):
        config = RunConfig(use_cache=False, verify=True)

        async def scenario():
            service = PlanningService(ServiceSettings(workers=1, isolation="thread"))
            await service.start()
            bad, _ = service.submit(
                PlanRequest("d695", 8, config, fault={"corrupt_plan": "overlap"})
            )
            done = await service.wait(bad.id, timeout=300)
            await service.shutdown(drain=True)
            return done

        done = asyncio.run(scenario())
        assert done.state is JobState.FAILED
        assert done.error_code == "invalid-plan"

    def test_corrupted_plan_fails_with_typed_error(self):
        config = RunConfig(compression="none", use_cache=False)

        async def scenario():
            service = PlanningService(
                ServiceSettings(workers=1, isolation="thread")
            )
            await service.start()
            bad, _ = service.submit(
                PlanRequest(
                    "d695",
                    8,
                    config,
                    fault={"corrupt_plan": "inflate-makespan"},
                )
            )
            # The faulty twin must not coalesce with the clean request.
            clean, deduped = service.submit(PlanRequest("d695", 8, config))
            bad_done = await service.wait(bad.id, timeout=300)
            clean_done = await service.wait(clean.id, timeout=300)
            await service.shutdown(drain=True)
            return service, bad_done, clean_done, deduped

        service, bad_done, clean_done, deduped = asyncio.run(scenario())
        assert not deduped
        assert bad_done.state is JobState.FAILED
        assert bad_done.error_code == "invalid-plan"
        # Deterministic failure: the gate must not burn retries.
        assert bad_done.attempts == 1
        assert "time-model" in (bad_done.error or "")
        assert clean_done.state is JobState.DONE
        assert json.loads(clean_done.result_json)["soc"] == "d695"
        assert service.counters["jobs_invalid_plan"] == 1
