"""Serve load-test guard: artifact schema, overhead gate, live smoke.

Three layers of protection for the ``BENCH_serve.json`` artifact:

* the committed document must validate against the ``bench-serve``
  schema (via the shared validator in
  ``scripts/check_obs_artifacts.py``) and record a telemetry-on and a
  telemetry-off pass from a >= 64-concurrent-client duplicate-heavy
  run, with the on/off throughput ratio above the overhead floor --
  the standing proof that live telemetry costs nothing measurable;
* the validator must reject malformed or inconsistent documents, so a
  broken load-test run cannot record a green artifact; and
* the load-test harness itself is re-run live in its ``--smoke``
  configuration against a real server subprocess to prove it still
  produces a document the validator accepts.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
ARTIFACT = REPO / "benchmarks" / "results" / "BENCH_serve.json"


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(
        name, REPO / "scripts" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


validator = _load_script("check_obs_artifacts")


@pytest.fixture(scope="module")
def artifact() -> dict:
    return json.loads(ARTIFACT.read_text())


class TestCommittedArtifact:
    def test_validates(self, artifact):
        summary = validator.check_bench_serve(artifact)
        assert summary["runs"] == 2

    def test_records_a_heavy_concurrent_run(self, artifact):
        assert artifact["clients"] >= 64
        assert artifact["clients"] * artifact["requests_per_client"] >= 256
        # The pool is much smaller than the request count, so the run
        # genuinely exercised the dedup window.
        assert len(artifact["workload"]) * 8 <= artifact["clients"] * (
            artifact["requests_per_client"]
        )

    def test_both_telemetry_modes_present(self, artifact):
        modes = {p["telemetry"] for p in artifact["passes"]}
        assert modes == {True, False}

    def test_duplicate_heavy_dedup_rate(self, artifact):
        for record in artifact["passes"]:
            assert record["deduped"] / record["requests"] >= 0.25

    def test_overhead_gate(self, artifact):
        assert artifact["throughput_ratio"] >= (
            validator.SERVE_OVERHEAD_FLOOR
        )

    def test_exposition_matched_authoritative_counters(self, artifact):
        on = next(p for p in artifact["passes"] if p["telemetry"])
        assert on["metrics_consistent"] is True

    def test_no_failed_requests(self, artifact):
        for record in artifact["passes"]:
            assert record["failed"] == 0
            assert record["completed"] + record["rejected"] == (
                record["requests"]
            )


class TestValidatorRejections:
    def test_wrong_kind(self, artifact):
        doc = copy.deepcopy(artifact)
        doc["kind"] = "bench-search"
        with pytest.raises(validator.ArtifactError, match="kind"):
            validator.check_bench_serve(doc)

    def test_missing_pass(self, artifact):
        doc = copy.deepcopy(artifact)
        doc["passes"] = doc["passes"][:1]
        with pytest.raises(validator.ArtifactError, match="two passes"):
            validator.check_bench_serve(doc)

    def test_duplicate_mode(self, artifact):
        doc = copy.deepcopy(artifact)
        doc["passes"][1] = copy.deepcopy(doc["passes"][0])
        with pytest.raises(validator.ArtifactError, match="duplicate"):
            validator.check_bench_serve(doc)

    def test_broken_request_accounting(self, artifact):
        doc = copy.deepcopy(artifact)
        doc["passes"][0]["completed"] += 1
        with pytest.raises(validator.ArtifactError, match="accounting"):
            validator.check_bench_serve(doc)

    def test_counters_must_conserve_submissions(self, artifact):
        doc = copy.deepcopy(artifact)
        doc["passes"][0]["server"]["counters"]["jobs_submitted"] += 3
        with pytest.raises(validator.ArtifactError, match="conserve"):
            validator.check_bench_serve(doc)

    def test_non_monotone_quantiles(self, artifact):
        doc = copy.deepcopy(artifact)
        latency = doc["passes"][0]["latency_s"]
        latency["p50"] = latency["max"] + 1.0
        with pytest.raises(validator.ArtifactError, match="monotone"):
            validator.check_bench_serve(doc)

    def test_inconsistent_throughput(self, artifact):
        doc = copy.deepcopy(artifact)
        doc["passes"][0]["requests_per_s"] *= 3
        with pytest.raises(validator.ArtifactError, match="requests_per_s"):
            validator.check_bench_serve(doc)

    def test_overhead_gate_rejects_slow_telemetry(self, artifact):
        doc = copy.deepcopy(artifact)
        on = next(p for p in doc["passes"] if p["telemetry"])
        on["requests_per_s"] = doc["passes"][0]["requests_per_s"] * 0.1
        on["wall_seconds"] = on["requests"] / on["requests_per_s"]
        doc["throughput_ratio"] = 0.1 / 1.0
        with pytest.raises(validator.ArtifactError, match="overhead"):
            validator.check_bench_serve(doc)

    def test_diverged_exposition(self, artifact):
        doc = copy.deepcopy(artifact)
        next(p for p in doc["passes"] if p["telemetry"])[
            "metrics_consistent"
        ] = False
        with pytest.raises(validator.ArtifactError, match="diverged"):
            validator.check_bench_serve(doc)

    def test_dedup_free_run_is_rejected(self, artifact):
        doc = copy.deepcopy(artifact)
        for record in doc["passes"]:
            moved = record["deduped"]
            record["deduped"] = 0
            counters = record["server"]["counters"]
            counters["jobs_submitted"] = (
                counters.get("jobs_submitted", 0)
                + counters.get("jobs_deduped", 0)
            )
            counters["jobs_deduped"] = 0
            del moved
        with pytest.raises(validator.ArtifactError, match="duplicate-heavy"):
            validator.check_bench_serve(doc)


class TestLiveSmoke:
    def test_harness_produces_valid_document(self):
        """The load-test harness end-to-end in its CI configuration."""
        loadtest = _load_script("loadtest_serve")
        doc = loadtest.measure(
            8, 2, 2, workload=(("d695", 8), ("d695", 12), ("d695", 16))
        )
        summary = validator.check_bench_serve(doc)
        assert summary["runs"] == 2
        assert doc["clients"] == 8
