"""Tests of the benchmark harness itself: ``python -m pytest bench -q``.

They run the harness at its ``--smoke`` size, so they check plumbing,
determinism and the output format, not performance.  They are
outside the tier-1 ``testpaths``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bench import workloads  # noqa: E402
from bench.trace import LAYERS, Hooks, Tracer, layer_metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {metric["name"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"] for metric in SPEC["per_layer"]}


def run_bench(
    tmp: Path, workload: str, *, seed: int = 0, trace: int = 0,
    root: Path = ROOT,
) -> tuple[subprocess.CompletedProcess, dict | None]:
    out = tmp / f"{workload}-{seed}-{trace}.json"
    proc = subprocess.run(
        [
            sys.executable, str(root / "bench" / "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace), "--smoke", "--out", str(out),
        ],
        capture_output=True, text=True, timeout=170, cwd=root,
    )
    envelope = json.loads(out.read_text()) if out.exists() else None
    return proc, envelope


def last_line(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- hooks -------------------------------------------------------------------


def test_every_hook_target_resolves_and_uninstalls():
    import repro.pipeline.stages as stages
    import repro.search.backend as backend

    original = backend.run_search
    hooks = Hooks(Tracer())
    with hooks:
        assert hooks.missing == []
        assert hooks.null_layers == []
        assert stages.run_search is backend.run_search is not original
    assert stages.run_search is original and backend.run_search is original


def test_missing_target_is_a_null_layer_not_a_crash():
    layers = dict(LAYERS)
    layers["ghost"] = ("repro.no_such_module:nothing",)
    layers["soc"] = ("repro.soc.industrial:no_such_function",) + LAYERS["soc"]
    tracer = Tracer()
    hooks = Hooks(tracer, layers)
    with hooks:
        pass
    assert "repro.no_such_module:nothing" in hooks.missing
    assert "repro.soc.industrial:no_such_function" in hooks.missing
    assert hooks.null_layers == ["ghost"]
    metrics = layer_metrics(tracer, hooks)
    assert metrics["ghost.self_s"] is None and metrics["ghost.calls"] is None
    assert metrics["soc.calls"] == 0


def test_self_times_add_up_to_the_op_wall_time():
    import repro

    tracer = Tracer()
    with Hooks(tracer):
        tracer.begin_op("d695@8")
        soc = repro.load_design("d695")
        repro.result_to_json(repro.plan(soc, 8, repro.RunConfig(use_cache=False)))
        wall = tracer.end_op()
    covered = sum(tracer.self_s.values()) + tracer.other_s
    assert covered == pytest.approx(wall, rel=1e-6)
    assert tracer.calls["soc"] == 1 and tracer.calls["reporting"] == 1
    assert tracer.counters["search.evaluations"] > 0


# -- inputs ------------------------------------------------------------------


def test_declared_workloads_are_the_implemented_ones():
    declared = {workload["name"] for workload in SPEC["workloads"]}
    assert declared == set(workloads.OP_LISTS) | {"serve"}


@pytest.mark.parametrize("make_ops", [
    workloads.cold_ops, workloads.sweep_ops, workloads.manycore_ops,
])
def test_same_seed_same_ops_other_seed_other_ops(make_ops):
    assert make_ops(3) == make_ops(3)
    assert make_ops(3) != make_ops(4)


def test_serve_passes_follow_the_load_test_round_robin():
    pool = workloads.SERVE_LOAD.pool
    passes = workloads.serve_passes(5)
    assert passes == workloads.serve_passes(5)
    assert passes != workloads.serve_passes(6)
    for keys in passes:
        assert len(keys) == workloads.SERVE_LOAD.clients
        # Client i + 1 asks for the key after client i's, as in the load test.
        for key, following in zip(keys, keys[1:]):
            assert following == pool[(pool.index(key) + 1) % len(pool)]
    # A round starts one pass at every key of the pool.
    assert sorted(keys[0] for keys in passes) == sorted(pool)


def test_round_count_depends_on_seconds_only():
    for workload, seconds in workloads.ROUND_S.items():
        assert workloads.rounds_for(workload, 1) == workloads.MIN_ROUNDS
        assert workloads.rounds_for(workload, 10 * seconds) == 10


def test_seed_zero_keeps_round_widths():
    assert {op.width for op in workloads.cold_ops(0)} == {64}
    assert {op.width for op in workloads.sweep_ops(0)} == {8 * k for k in range(1, 9)}


# -- the command -------------------------------------------------------------


def test_untraced_run_is_deterministic_and_emits_the_declared_metrics(tmp_path):
    proc, first = run_bench(tmp_path / "a", "cold", seed=2)
    assert proc.returncode == 0, proc.stderr
    summary = last_line(proc)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0
    assert set(summary["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in summary["metrics"].values())
    _, again = run_bench(tmp_path / "b", "cold", seed=2)
    assert again["plan_digest"] == first["plan_digest"]
    assert first["rounds"] == again["rounds"] == workloads.MIN_ROUNDS
    for metric in first["metrics"].values():
        assert metric["min"] <= metric["median"] <= metric["max"]
    assert first["commit"] and first["host"]["nproc"] >= 1


@pytest.mark.parametrize("workload", ["cold", "sweep", "manycore", "serve"])
def test_traced_run_matches_untraced_plans_and_covers_the_op(tmp_path, workload):
    proc, envelope = run_bench(tmp_path, workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    summary = last_line(proc)
    assert summary["correct"] and summary["failed"] == 0
    assert set(summary["metrics"]) == PER_LAYER
    digests = envelope["digests"]
    assert digests["traced"] == digests["untraced"]
    values = {name: m["value"] for name, m in envelope["metrics"].items()}
    self_times = [v for name, v in values.items() if name.endswith(".self_s")]
    assert values["pipeline.other_s"] <= 0.05 * (sum(self_times) + values["pipeline.other_s"])
    assert values["trace_overhead"] > 0
    trace = json.loads(Path(envelope["chrome_trace"]).read_text())
    assert any(event["cat"] == "op" for event in trace["traceEvents"])
    if workload == "serve":
        assert values["serve.job_s_mean"] > 0
        assert 0 < values["serve.computed_ratio"] <= 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    proc, envelope = run_bench(tmp_path, "cold", root=tmp_path)
    assert proc.returncode != 0
    assert envelope is None
    assert '"correct"' not in proc.stdout


# -- diff --------------------------------------------------------------------


def write_runs(directory: Path, envelope: dict, seeds: tuple[int, ...]) -> Path:
    directory.mkdir()
    for seed in seeds:
        (directory / f"{seed}.json").write_text(json.dumps({**envelope, "seed": seed}))
    return directory


def test_diff_passes_identical_results_and_flags_a_regression(tmp_path):
    proc, envelope = run_bench(tmp_path / "runs", "cold")
    assert proc.returncode == 0, proc.stderr
    # No spread across rounds or runs, so the verdict depends on the bound alone.
    for metric in envelope["metrics"].values():
        metric["min"] = metric["median"] = metric["max"] = metric["value"]
    base = write_runs(tmp_path / "base", envelope, (0, 1))
    diff = [sys.executable, str(ROOT / "bench" / "diff.py")]

    same = subprocess.run(diff + [str(base), str(base)], capture_output=True, text=True)
    assert same.returncode == 0, same.stdout
    assert "worse" not in same.stdout

    # Every end-to-end metric 20% worse: flagged exactly where the bound
    # is tighter than 20%.
    slower = json.loads(json.dumps(envelope))
    for declared in SPEC["end_to_end"]:
        factor = 1.2 if declared["better"] == "lower" else 1 / 1.2
        metric = slower["metrics"][declared["name"]]
        for key in ("value", "min", "median", "max"):
            metric[key] *= factor
    changed = write_runs(tmp_path / "slower", slower, (0, 1))
    worse = subprocess.run(diff + [str(base), str(changed)], capture_output=True, text=True)
    assert worse.returncode == 1
    flagged = {line.split()[0] for line in worse.stdout.splitlines() if line.endswith(" worse")}
    assert flagged == {m["name"] for m in SPEC["end_to_end"] if m["bound"] < 0.2}

    # One run a side cannot tell a change from a slow host: unresolved.
    single = subprocess.run(
        diff + [str(base / "0.json"), str(changed / "0.json")], capture_output=True, text=True
    )
    assert single.returncode == 0 and " worse" not in single.stdout
    assert "unresolved" in single.stdout

    mismatch = write_runs(tmp_path / "mismatch", {**slower, "plan_digest": "0" * 16}, (0,))
    result = subprocess.run(diff + [str(base), str(mismatch)], capture_output=True, text=True)
    assert "MISMATCH" in result.stdout and result.returncode == 1
