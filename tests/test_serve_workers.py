"""Warm serve workers: reuse, isolation between jobs, retirement, cleanup.

Under process isolation the service plans every job on a long-lived
worker process of :class:`repro.serve.worker.WorkerPool`.  These tests
pin what that reuse may and may not change:

* sequential jobs reuse one worker, yet each job's shipped telemetry
  is its own, and a warm worker's plans equal the direct pipeline's;
* a timeout, a crash, an error reply, the job limit and the memory
  limit each retire the worker, and the next job runs on a new one;
* a worker found dead at hand-out is replaced without costing the job
  an attempt;
* no worker outlives its service, whether it shuts down or is killed.

The attempt threads are pinned too: a service with more slots than the
event loop's default executor has threads must run every attempt at
once.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import obs
from repro.pipeline import RunConfig, plan
from repro.reporting.export import result_to_json
from repro.serve import (
    JobState,
    PlanningService,
    PlanRequest,
    ServiceSettings,
    connect_with_retry,
)
from repro.serve import worker as worker_module
from repro.serve.errors import InvalidPlan, WorkerError
from repro.serve.worker import WorkerPool, process_isolation_available
from repro.soc.industrial import load_design

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

needs_spawn = pytest.mark.skipif(
    not process_isolation_available(),
    reason="multiprocessing spawn unavailable on this platform",
)

_CONFIG = RunConfig(compression="none", use_cache=False)


def _payload(design: str = "d695", width: int = 8, **kwargs) -> dict:
    """A worker payload that asks for telemetry, so replies name a pid."""
    request_id = kwargs.pop("request_id", "req-workers000")
    payload = PlanRequest(design, width, _CONFIG, **kwargs).worker_payload(0)
    payload["telemetry"] = True
    payload["request_id"] = request_id
    return payload


def _pid(shipped: dict) -> int:
    (span,) = [s for s in shipped["spans"] if s["name"] == "worker/plan"]
    return int(span["attrs"]["pid"])


def _run(pool: WorkerPool, payload: dict, **kwargs) -> tuple[str, int]:
    """One job on ``pool``: its result text and the worker's pid."""
    text, shipped = pool.run(payload, **kwargs)
    return text, _pid(shipped)


def _stable(text: str) -> dict:
    """A plan export without its wall-clock fields."""
    data = json.loads(text)
    data["optimizer"].pop("cpu_seconds")
    data["optimizer"].pop("stage_timings")
    return data


def _direct(design: str, width: int) -> dict:
    return _stable(result_to_json(plan(load_design(design), width, _CONFIG)))


def _settings(**overrides) -> ServiceSettings:
    defaults = dict(
        workers=1,
        isolation="process",
        max_retries=2,
        retry_base_s=0.05,
        retry_cap_s=0.2,
    )
    defaults.update(overrides)
    return ServiceSettings(**defaults)


def _child_pids() -> set[int]:
    return {proc.pid for proc in multiprocessing.active_children()}


def _served(scenario):
    """Run ``scenario`` under telemetry: its result and, per request id,
    the pid of the worker that planned it."""
    with obs.enabled() as active:
        result = asyncio.run(scenario())
    pids = {
        span.attrs["request_id"]: span.attrs["pid"]
        for span in active.tracer.spans
        if span.name == "worker/plan"
    }
    return result, pids


async def _plan_on(service: PlanningService, width: int, **kwargs):
    job, _ = service.submit(PlanRequest("d695", width, _CONFIG, **kwargs))
    return await service.wait(job.id, timeout=300)


@pytest.fixture
def pool():
    pool = WorkerPool(1)
    try:
        yield pool
    finally:
        pool.close()


# ---------------------------------------------------------------------------
# Attempt threads: one per slot, not the loop's default executor.
# ---------------------------------------------------------------------------


class TestAttemptThreads:
    def test_more_slots_than_default_executor_threads_all_run_at_once(self):
        slots = min(32, (os.cpu_count() or 1) + 4) + 2
        barrier = threading.Barrier(slots, timeout=10)

        def runner(payload, *, timeout_s=None, should_cancel=None):
            barrier.wait()
            return json.dumps({"width": payload["width"]})

        async def scenario():
            service = PlanningService(
                ServiceSettings(
                    workers=slots, isolation="thread", max_depth=slots
                ),
                runner=runner,
            )
            await service.start()
            jobs = [
                service.submit(PlanRequest("d695", width, _CONFIG))[0]
                for width in range(1, slots + 1)
            ]
            done = [await service.wait(job.id, timeout=120) for job in jobs]
            await service.shutdown(drain=True)
            return done

        done = asyncio.run(scenario())
        assert [job.state for job in done] == [JobState.DONE] * slots, [
            job.error for job in done
        ]


# ---------------------------------------------------------------------------
# Reuse and isolation between jobs.
# ---------------------------------------------------------------------------


@needs_spawn
class TestReuse:
    def test_sequential_jobs_run_on_one_worker(self):
        async def scenario():
            service = PlanningService(_settings())
            await service.start()
            for width in (8, 10, 12):
                done = await _plan_on(service, width)
                assert done.state is JobState.DONE, done.error
            await service.shutdown(drain=True)

        _, pids = _served(scenario)
        assert len(pids) == 3
        assert len(set(pids.values())) == 1

    def test_each_job_ships_only_its_own_telemetry(self, pool):
        pids = set()
        for index, width in enumerate((8, 10, 8)):
            request_id = f"req-isolation{index}"
            sent = time.time()
            _, shipped = pool.run(_payload(width=width, request_id=request_id))
            spans = shipped["spans"]
            assert [s["name"] for s in spans].count("worker/plan") == 1
            assert {s["attrs"].get("request_id") for s in spans} <= {
                request_id,
                None,
            }
            # Nothing recorded before this job was sent came along.
            assert min(s["start"] for s in spans) >= sent
            # Counters start from zero for every job: d695 has 10 cores.
            counters = shipped["metrics"]["counters"]
            assert counters["schedule.cores_scheduled"] == 10
            pids.add(_pid(shipped))
        assert len(pids) == 1

    def test_warm_worker_plans_equal_the_direct_pipeline(self, pool):
        keys = [("synth20", 16), ("d2758", 12), ("d695", 8), ("synth20", 12)]
        pids = set()
        for design, width in keys:
            text, pid = _run(pool, _payload(design, width))
            pids.add(pid)
            assert _stable(text) == _direct(design, width), (design, width)
        assert len(pids) == 1


@needs_spawn
class TestConcurrentHandOut:
    def test_concurrent_jobs_never_share_or_lose_a_worker(self):
        # As many callers as the pool has slots (the service never runs
        # more), more than most hosts' cores, with frequent thread
        # switches: a worker handed to two callers at once would mix up
        # replies, and a lost check-in would start more workers than
        # slots.
        size, jobs_each = 4, 8
        widths = (8, 10, 12)
        expected = {width: _direct("d695", width) for width in widths}
        pool = WorkerPool(size)
        before = _child_pids()
        pids: list[int] = []
        errors: list[BaseException] = []
        lock = threading.Lock()

        def caller(index: int) -> None:
            try:
                for step in range(jobs_each):
                    width = widths[(index + step) % len(widths)]
                    text, pid = _run(pool, _payload(width=width))
                    assert _stable(text) == expected[width], width
                    with lock:
                        pids.append(pid)
            except BaseException as error:  # noqa: BLE001 - reported below
                with lock:
                    errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=caller, args=(i,)) for i in range(size)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            started = _child_pids() - before
            pool.close()
        assert errors == []
        assert len(pids) == size * jobs_each
        assert len(set(pids)) <= size
        assert len(started) <= size
        assert _child_pids() - before == set()


# ---------------------------------------------------------------------------
# Retirement: every ending but "ok" and "invalid" replaces the worker.
# ---------------------------------------------------------------------------


@needs_spawn
class TestReplacement:
    def test_next_job_after_a_timeout_runs_on_a_new_worker(self):
        async def scenario():
            service = PlanningService(_settings())
            await service.start()
            before = await _plan_on(service, 8)
            stuck = await _plan_on(
                service, 10, fault={"sleep_s": 30}, timeout_s=0.5
            )
            after = await _plan_on(service, 12)
            await service.shutdown(drain=True)
            assert stuck.error_code == "timeout"
            assert after.state is JobState.DONE, after.error
            return before.request_id, after.request_id

        (before, after), pids = _served(scenario)
        assert len(pids) == 2
        assert pids[before] != pids[after]

    def test_next_job_after_a_crash_runs_on_a_new_worker(self):
        async def scenario():
            service = PlanningService(_settings(max_retries=0))
            await service.start()
            before = await _plan_on(service, 8)
            crashed = await _plan_on(
                service, 10, fault={"exit_on_attempts": [0]}
            )
            after = await _plan_on(service, 12)
            await service.shutdown(drain=True)
            assert crashed.error_code == "worker-crashed"
            assert after.state is JobState.DONE, after.error
            return before.request_id, after.request_id

        (before, after), pids = _served(scenario)
        assert len(pids) == 2
        assert pids[before] != pids[after]

    def test_error_reply_retires_the_worker(self, pool):
        _, first = _run(pool, _payload())
        with pytest.raises(WorkerError) as excinfo:
            pool.run(_payload("no-such-soc"))
        assert not isinstance(excinfo.value, InvalidPlan)
        _, second = _run(pool, _payload())
        assert second != first

    def test_invalid_plan_keeps_the_worker(self, pool):
        _, first = _run(pool, _payload())
        with pytest.raises(InvalidPlan):
            pool.run(_payload(width=10, fault={"corrupt_plan": "overlap"}))
        _, second = _run(pool, _payload())
        assert second == first

    def test_sigint_leaves_the_worker_running(self, pool):
        # A Ctrl-C on the server's terminal reaches its workers too; the
        # server alone decides how their jobs end.
        _, first = _run(pool, _payload())
        os.kill(first, signal.SIGINT)
        time.sleep(0.2)
        _, second = _run(pool, _payload(width=10))
        assert second == first

    def test_dead_idle_worker_is_replaced_before_the_send(self, pool):
        _, first = _run(pool, _payload())
        os.kill(first, signal.SIGKILL)
        deadline = time.monotonic() + 10
        while first in _child_pids():  # reaps it once it has died
            assert time.monotonic() < deadline
            time.sleep(0.02)
        # Not a crash of this job: the pool replaced the worker first.
        text, second = _run(pool, _payload())
        assert second != first
        assert _stable(text) == _direct("d695", 8)


@needs_spawn
class TestRecycling:
    def test_job_limit_recycles_the_worker(self, pool, monkeypatch):
        monkeypatch.setattr(worker_module, "WORKER_MAX_JOBS", 2)
        runs = [_run(pool, _payload(width=w)) for w in (8, 10, 12, 14)]
        pids = [pid for _, pid in runs]
        assert pids[0] == pids[1] != pids[2] == pids[3]
        for (text, _), width in zip(runs, (8, 10, 12, 14)):
            assert _stable(text) == _direct("d695", width)

    def test_rss_limit_recycles_after_every_job(self, pool, monkeypatch):
        monkeypatch.setattr(worker_module, "WORKER_MAX_RSS_MB", 1.0)
        runs = [_run(pool, _payload(width=w)) for w in (8, 8, 10)]
        pids = [pid for _, pid in runs]
        assert len(set(pids)) == 3
        assert _stable(runs[0][0]) == _stable(runs[1][0])
        assert _stable(runs[0][0]) == _direct("d695", 8)
        assert _stable(runs[2][0]) == _direct("d695", 10)


# ---------------------------------------------------------------------------
# No worker outlives its service.
# ---------------------------------------------------------------------------


@needs_spawn
class TestNoOrphans:
    @pytest.mark.parametrize("drain", [True, False])
    def test_shutdown_stops_every_pool_process(self, drain):
        before = _child_pids()

        async def scenario():
            service = PlanningService(_settings(workers=2))
            await service.start()
            # Workers start lazily: none before the first job.
            assert _child_pids() - before == set()
            jobs = [
                service.submit(PlanRequest("d695", w, _CONFIG))[0]
                for w in (8, 10, 12, 14)
            ]
            for job in jobs:
                done = await service.wait(job.id, timeout=300)
                assert done.state is JobState.DONE, done.error
            warm = _child_pids() - before
            assert 1 <= len(warm) <= 2  # at most one per slot
            # One job still running when the shutdown begins.
            running, _ = service.submit(
                PlanRequest("d695", 16, _CONFIG, fault={"sleep_s": 1.0})
            )
            deadline = time.monotonic() + 60
            while running.state is not JobState.RUNNING:
                assert time.monotonic() < deadline
                await asyncio.sleep(0.02)
            await service.shutdown(drain=drain)
            expected = JobState.DONE if drain else JobState.CANCELLED
            assert running.state is expected, running.error
            return warm

        warm = asyncio.run(scenario())
        assert warm
        assert _child_pids() - before == set()

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="reads /proc"
    )
    def test_killed_server_leaves_no_child(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                "--jobs", "2", "--no-log",
            ],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            text=True,
            cwd=REPO,
        )
        children: set[int] = set()
        try:
            ready = json.loads(proc.stdout.readline())
            with connect_with_retry(ready["host"], ready["port"]) as client:
                ticket = client.submit("d695", 8, _CONFIG)
                client.result(ticket.job_id, timeout_s=120)
            children = _proc_children(proc.pid)
            assert children, "the finished job left no warm worker"
            proc.kill()
            proc.wait(timeout=10)
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline and any(
                _proc_alive(pid) for pid in children
            ):
                time.sleep(0.05)
            assert [pid for pid in children if _proc_alive(pid)] == []
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            proc.stdout.close()
            for pid in children:
                if _proc_alive(pid):
                    os.kill(pid, signal.SIGKILL)


def _proc_stat(pid: int) -> list[str] | None:
    """``/proc/<pid>/stat`` fields after the command name, or ``None``."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return text.rsplit(")", 1)[1].split()


def _proc_alive(pid: int) -> bool:
    fields = _proc_stat(pid)
    return fields is not None and fields[0] not in ("Z", "X")


def _proc_children(pid: int) -> set[int]:
    """Live direct children of ``pid``, from ``/proc``."""
    children = set()
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        fields = _proc_stat(int(entry.name))
        if fields is not None and fields[0] not in ("Z", "X"):
            if int(fields[1]) == pid:
                children.add(int(entry.name))
    return children
