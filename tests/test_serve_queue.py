"""Unit tests for the service job queue and job state machine."""

from __future__ import annotations

import asyncio

import pytest

from repro.pipeline import RunConfig
from repro.serve.jobs import Job, JobQueue, JobState, QueueFull
from repro.serve.protocol import PlanRequest


def _job(priority: int = 0, width: int = 16) -> Job:
    request = PlanRequest("d695", width, RunConfig(), priority=priority)
    return Job(request=request, fingerprint=request.fingerprint())


def _run(coro):
    return asyncio.run(coro)


class TestJobStateMachine:
    def test_initial_state(self):
        job = _job()
        assert job.state is JobState.QUEUED
        assert not job.state.terminal
        assert job.attempts == 0

    def test_done_transition(self):
        job = _job()
        job.mark_running()
        assert job.state is JobState.RUNNING
        assert job.started_at is not None
        job.mark_done('{"x": 1}')
        assert job.state is JobState.DONE
        assert job.state.terminal
        assert job.result_json == '{"x": 1}'
        assert job.finished_at is not None

    def test_failed_transition_records_code(self):
        job = _job()
        job.mark_running()
        job.mark_failed("timeout", "exceeded deadline")
        assert job.state is JobState.FAILED
        assert job.error_code == "timeout"
        assert "deadline" in job.error

    def test_cancelled_is_terminal(self):
        job = _job()
        job.mark_cancelled()
        assert job.state is JobState.CANCELLED
        assert job.state.terminal

    def test_done_event_set_on_finish(self):
        async def scenario():
            job = _job()
            job.done_event = asyncio.Event()
            job.mark_done("{}")
            assert job.done_event.is_set()

        _run(scenario())

    def test_fingerprint_matches_request(self):
        job = _job()
        assert job.fingerprint == job.request.fingerprint()


class TestJobQueue:
    def test_rejects_bad_depth(self):
        async def scenario():
            with pytest.raises(ValueError):
                JobQueue(0)

        _run(scenario())

    def test_fifo_within_priority(self):
        async def scenario():
            queue = JobQueue(8)
            jobs = [_job(width=16 + i) for i in range(3)]
            for job in jobs:
                queue.push(job)
            popped = [await queue.pop() for _ in range(3)]
            assert popped == jobs

        _run(scenario())

    def test_higher_priority_pops_first(self):
        async def scenario():
            queue = JobQueue(8)
            low = _job(priority=0)
            high = _job(priority=5, width=24)
            mid = _job(priority=2, width=32)
            for job in (low, high, mid):
                queue.push(job)
            assert await queue.pop() is high
            assert await queue.pop() is mid
            assert await queue.pop() is low

        _run(scenario())

    def test_bounded_depth_raises_queue_full(self):
        async def scenario():
            queue = JobQueue(2)
            queue.push(_job())
            queue.push(_job(width=24))
            assert queue.full
            with pytest.raises(QueueFull):
                queue.push(_job(width=32))
            # Popping frees a slot again.
            await queue.pop()
            queue.push(_job(width=32))

        _run(scenario())

    def test_pop_waits_for_push(self):
        async def scenario():
            queue = JobQueue(4)
            job = _job()

            async def pusher():
                await asyncio.sleep(0.01)
                queue.push(job)

            task = asyncio.create_task(pusher())
            popped = await asyncio.wait_for(queue.pop(), timeout=2)
            await task
            assert popped is job

        _run(scenario())

    def test_cancelled_jobs_are_skipped(self):
        async def scenario():
            queue = JobQueue(4)
            first = _job()
            second = _job(width=24)
            queue.push(first)
            queue.push(second)
            first.mark_cancelled()
            assert await queue.pop() is second

        _run(scenario())

    def test_cancelled_jobs_do_not_count_toward_depth(self):
        async def scenario():
            queue = JobQueue(2)
            first = _job()
            queue.push(first)
            queue.push(_job(width=24))
            first.mark_cancelled()
            assert len(queue) == 1
            queue.push(_job(width=32))  # does not raise

        _run(scenario())

    def test_closed_queue_returns_none_immediately(self):
        async def scenario():
            queue = JobQueue(4)
            queue.push(_job())
            queue.close()
            # Shutdown semantics: remaining jobs are persisted, not
            # dispatched.
            assert await queue.pop() is None
            assert len(queue.snapshot()) == 1

        _run(scenario())

    def test_close_wakes_blocked_pop(self):
        async def scenario():
            queue = JobQueue(4)

            async def closer():
                await asyncio.sleep(0.01)
                queue.close()

            task = asyncio.create_task(closer())
            assert await asyncio.wait_for(queue.pop(), timeout=2) is None
            await task

        _run(scenario())

    def test_snapshot_preserves_pop_order(self):
        async def scenario():
            queue = JobQueue(8)
            low = _job(priority=0)
            high = _job(priority=9, width=24)
            queue.push(low)
            queue.push(high)
            snapshot = queue.snapshot()
            assert [r["job_id"] for r in snapshot] == [high.id, low.id]
            assert snapshot[0]["request"]["width"] == 24

        _run(scenario())
