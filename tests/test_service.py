"""PlanningService behavior: dedup, backpressure, priorities, lifecycle.

These tests inject a controllable runner so concurrency windows are
deterministic (a job stays in flight until the test opens its gate);
the real planning path is covered by the differential and server
integration tests.
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.pipeline import RunConfig
from repro.serve import (
    BackpressureError,
    JobNotFound,
    JobState,
    PlanningService,
    PlanRequest,
    ServiceServer,
    ServiceSettings,
    ShuttingDown,
)
from repro.serve.protocol import decode_message, encode_message


class GatedRunner:
    """A runner whose jobs block until the test releases them."""

    def __init__(self) -> None:
        self.gate = threading.Event()
        self.calls: list[dict] = []
        self._lock = threading.Lock()

    def __call__(self, payload, *, timeout_s=None, should_cancel=None):
        with self._lock:
            self.calls.append(dict(payload))
        while not self.gate.wait(timeout=0.02):
            if should_cancel is not None and should_cancel():
                from repro.serve.errors import JobCancelled

                raise JobCancelled("cancelled by test runner")
        return json.dumps(
            {"design": payload["design"], "width": payload["width"]}
        )


class TextRunner(GatedRunner):
    """A gated runner whose every job returns the same result text."""

    def __init__(self, text: str) -> None:
        super().__init__()
        self.text = text

    def __call__(self, payload, **kwargs):
        super().__call__(payload, **kwargs)
        return self.text


def _request(width: int = 16, **kwargs) -> PlanRequest:
    return PlanRequest("d695", width, RunConfig(), **kwargs)


def _service(runner, **settings) -> PlanningService:
    defaults = dict(workers=2, isolation="thread", max_depth=4)
    defaults.update(settings)
    return PlanningService(ServiceSettings(**defaults), runner=runner)


async def _drain(service: PlanningService) -> None:
    await service.shutdown(drain=True)


class TestDedup:
    def test_identical_inflight_requests_coalesce(self):
        async def scenario():
            runner = GatedRunner()
            service = _service(runner, workers=1)
            await service.start()
            first, deduped_first = service.submit(_request())
            second, deduped_second = service.submit(_request())
            third, deduped_third = service.submit(_request())
            assert not deduped_first
            assert deduped_second and deduped_third
            assert second is first and third is first
            assert first.coalesced == 2
            assert service.counters["jobs_deduped"] == 2
            assert service.counters["jobs_submitted"] == 1
            runner.gate.set()
            job = await service.wait(first.id, timeout=10)
            assert job.state is JobState.DONE
            # One computation served all three submissions.
            assert len(runner.calls) == 1
            await _drain(service)

        asyncio.run(scenario())

    def test_different_requests_do_not_coalesce(self):
        async def scenario():
            runner = GatedRunner()
            runner.gate.set()
            service = _service(runner)
            await service.start()
            a, _ = service.submit(_request(16))
            b, _ = service.submit(_request(24))
            assert a is not b
            await service.wait(a.id, timeout=10)
            await service.wait(b.id, timeout=10)
            assert len(runner.calls) == 2
            await _drain(service)

        asyncio.run(scenario())

    def test_finished_jobs_do_not_absorb_new_submissions(self):
        async def scenario():
            runner = GatedRunner()
            runner.gate.set()
            service = _service(runner)
            await service.start()
            first, _ = service.submit(_request())
            await service.wait(first.id, timeout=10)
            second, deduped = service.submit(_request())
            assert not deduped and second is not first
            await service.wait(second.id, timeout=10)
            await _drain(service)

        asyncio.run(scenario())


class TestBackpressure:
    def test_full_queue_rejects_with_retry_after(self):
        async def scenario():
            runner = GatedRunner()
            service = _service(runner, workers=1, max_depth=2)
            await service.start()
            # Let the dispatcher pull the first job into its worker slot.
            running, _ = service.submit(_request(8))
            await asyncio.sleep(0.05)
            service.submit(_request(16))
            service.submit(_request(24))
            with pytest.raises(BackpressureError) as excinfo:
                service.submit(_request(32))
            assert excinfo.value.retry_after > 0
            assert service.counters["jobs_rejected"] == 1
            # The rejection left the service fully operational.
            runner.gate.set()
            for job_id in list(service.jobs):
                job = await service.wait(job_id, timeout=10)
                assert job.state is JobState.DONE
            await _drain(service)

        asyncio.run(scenario())

    def test_dedup_wins_over_backpressure(self):
        async def scenario():
            runner = GatedRunner()
            service = _service(runner, workers=1, max_depth=1)
            await service.start()
            job, _ = service.submit(_request(8))
            await asyncio.sleep(0.05)
            filler, _ = service.submit(_request(16))  # fills the queue
            # An identical request coalesces even while the queue is full.
            again, deduped = service.submit(_request(16))
            assert deduped and again is filler
            runner.gate.set()
            await service.wait(job.id, timeout=10)
            await service.wait(filler.id, timeout=10)
            await _drain(service)

        asyncio.run(scenario())


class TestPriorities:
    def test_high_priority_jobs_run_first(self):
        async def scenario():
            runner = GatedRunner()
            service = _service(runner, workers=1, max_depth=8)
            await service.start()
            blocker, _ = service.submit(_request(8))
            await asyncio.sleep(0.05)  # blocker occupies the only slot
            low, _ = service.submit(_request(16, priority=0))
            high, _ = service.submit(_request(24, priority=10))
            runner.gate.set()
            for job in (blocker, low, high):
                await service.wait(job.id, timeout=10)
            widths = [call["width"] for call in runner.calls]
            assert widths == [8, 24, 16]
            await _drain(service)

        asyncio.run(scenario())


class TestCancellation:
    def test_cancel_queued_job(self):
        async def scenario():
            runner = GatedRunner()
            service = _service(runner, workers=1)
            await service.start()
            blocker, _ = service.submit(_request(8))
            await asyncio.sleep(0.05)
            queued, _ = service.submit(_request(16))
            cancelled = service.cancel(queued.id)
            assert cancelled.state is JobState.CANCELLED
            runner.gate.set()
            await service.wait(blocker.id, timeout=10)
            # The cancelled job never executed.
            assert [c["width"] for c in runner.calls] == [8]
            assert service.counters["jobs_cancelled"] == 1
            await _drain(service)

        asyncio.run(scenario())

    def test_cancel_running_job(self):
        async def scenario():
            runner = GatedRunner()
            service = _service(runner, workers=1)
            await service.start()
            job, _ = service.submit(_request(8))
            await asyncio.sleep(0.05)
            assert job.state is JobState.RUNNING
            service.cancel(job.id)
            done = await service.wait(job.id, timeout=10)
            assert done.state is JobState.CANCELLED
            await _drain(service)

        asyncio.run(scenario())

    def test_unknown_job_raises(self):
        async def scenario():
            service = _service(GatedRunner())
            await service.start()
            with pytest.raises(JobNotFound):
                service.get("job-doesnotexist")
            await _drain(service)

        asyncio.run(scenario())


class TestResultFanOut:
    """What a finished job costs the event loop per client fetching it."""

    def test_waiters_on_one_job_cost_one_parse(self, monkeypatch):
        result_json = json.dumps(
            {"soc": "d695", "schedule": [{"core": "s838", "end": 7}]}, indent=2
        )
        runner = TextRunner(result_json)
        parses = []
        loads = json.loads

        def counting_loads(text, *args, **kwargs):
            if text == result_json:
                parses.append(text)
            return loads(text, *args, **kwargs)

        monkeypatch.setattr(json, "loads", counting_loads)
        waiters = 6

        async def fetch(port, job_id):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(
                encode_message({"op": "result", "job_id": job_id, "timeout_s": 30})
            )
            await writer.drain()
            line = await reader.readline()
            writer.close()
            await writer.wait_closed()
            return line

        async def scenario():
            service = _service(runner, workers=1)
            server = ServiceServer(service, port=0)
            await server.start()
            job, _ = service.submit(_request())
            asyncio.get_running_loop().call_later(0.2, runner.gate.set)
            lines = await asyncio.gather(
                *(fetch(server.port, job.id) for _ in range(waiters))
            )
            late = await fetch(server.port, job.id)
            await server.stop()
            return lines + [late]

        lines = asyncio.run(scenario())
        assert len(parses) == 1
        assert len(set(lines)) == 1
        reply = decode_message(lines[0])
        assert reply["ok"] and reply["state"] == "done"
        assert reply["result"] == loads(result_json)

    def test_a_submission_fingerprints_its_request_once(self, monkeypatch):
        calls = []
        fingerprint = PlanRequest.fingerprint

        def counting(request):
            calls.append(request)
            return fingerprint(request)

        monkeypatch.setattr(PlanRequest, "fingerprint", counting)

        async def scenario():
            runner = GatedRunner()
            service = _service(runner, workers=1)
            await service.start()
            job, _ = service.submit(_request())
            runner.gate.set()
            await service.wait(job.id, timeout=10)
            await service.shutdown(drain=True)
            return job

        job = asyncio.run(scenario())
        assert len(calls) == 1
        assert job.fingerprint == fingerprint(_request())


class TestLifecycle:
    def test_submit_after_shutdown_rejected(self):
        async def scenario():
            runner = GatedRunner()
            runner.gate.set()
            service = _service(runner)
            await service.start()
            await service.shutdown(drain=True)
            with pytest.raises(ShuttingDown):
                service.submit(_request())

        asyncio.run(scenario())

    def test_stats_shape(self):
        async def scenario():
            runner = GatedRunner()
            runner.gate.set()
            service = _service(runner)
            await service.start()
            job, _ = service.submit(_request())
            await service.wait(job.id, timeout=10)
            stats = service.stats()
            assert stats["workers"] == 2
            assert stats["queue_capacity"] == 4
            assert stats["counters"]["jobs_completed"] == 1
            assert stats["retry_after_hint"] > 0
            await _drain(service)

        asyncio.run(scenario())

    def test_history_eviction_bounds_job_map(self):
        async def scenario():
            runner = GatedRunner()
            runner.gate.set()
            service = _service(runner, history_limit=3, max_depth=16)
            await service.start()
            for width in range(8, 28, 2):
                job, _ = service.submit(_request(width))
                await service.wait(job.id, timeout=10)
            assert len(service.jobs) <= 4  # history limit + in-flight slack
            await _drain(service)

        asyncio.run(scenario())


class TestRealPlanningThreadMode:
    def test_thread_isolation_plans_for_real(self):
        async def scenario():
            service = PlanningService(
                ServiceSettings(workers=1, isolation="thread")
            )
            await service.start()
            request = PlanRequest(
                "d695", 8, RunConfig(compression="none", use_cache=False)
            )
            job, _ = service.submit(request)
            done = await service.wait(job.id, timeout=120)
            assert done.state is JobState.DONE
            exported = json.loads(done.result_json)
            assert exported["soc"] == "d695"
            assert exported["test_time"] > 0
            await _drain(service)

        asyncio.run(scenario())
