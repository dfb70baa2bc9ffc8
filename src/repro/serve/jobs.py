"""Job bookkeeping and the bounded, priority-ordered job queue.

A :class:`Job` is one accepted plan request moving through the state
machine::

    QUEUED --> RUNNING --> DONE
       |          |`-----> FAILED     (timeout, crash budget, worker error)
       |          `------> CANCELLED
       `-----------------> CANCELLED  (cancelled before dispatch)

The :class:`JobQueue` is deliberately *not* ``asyncio.PriorityQueue``:

* **bounded with rejection** -- a full queue raises immediately
  (the service maps that to the backpressure protocol response) instead
  of suspending the producer, because a suspended ``submit`` looks like
  a hung service to every client behind it;
* **priority + FIFO** -- higher ``priority`` pops first, equal
  priorities pop in submission order (a monotonic sequence number
  breaks ties, so the heap never compares :class:`Job` objects);
* **inspectable** -- the service persists pending jobs across restarts
  (:meth:`JobQueue.snapshot`) and removes cancelled jobs lazily.
"""

from __future__ import annotations

import asyncio
import enum
import heapq
import itertools
import json
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.serve.protocol import PlanRequest


class JobState(enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


def new_job_id() -> str:
    return f"job-{uuid.uuid4().hex[:12]}"


@dataclass
class Job:
    """One accepted plan request and everything known about it."""

    request: PlanRequest
    #: ``request.fingerprint()``, computed once by whoever builds the
    #: job (the service's dedup index is keyed by it).
    fingerprint: str
    id: str = field(default_factory=new_job_id)
    state: JobState = JobState.QUEUED
    #: Executions started so far (1 on the first attempt).
    attempts: int = 0
    #: The worker's ``result_to_json`` text, verbatim (DONE only).
    result_json: str | None = None
    error: str | None = None
    error_code: str | None = None
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    #: How many submissions this job absorbed beyond the first.
    coalesced: int = 0
    #: Correlation id of the submission that *created* the job (dedup
    #: hits keep the original's id -- the trace belongs to the job, not
    #: to each coalesced submission).  Transport-level on purpose: it
    #: lives here and on the wire, never on :class:`PlanRequest`, so it
    #: can never leak into the dedup fingerprint.
    request_id: str = ""

    def __post_init__(self) -> None:
        #: The result as one compact, key-sorted JSON value, built on
        #: the first ``result`` reply and spliced into every later one.
        self._result_frame: str | None = None
        #: Set to wake ``result(wait=True)`` callers; created lazily in
        #: the service's event loop.
        self.done_event: asyncio.Event | None = None
        #: Observed by the in-flight worker; set to request termination.
        self.cancel_requested = False

    def result_frame(self) -> str:
        """The DONE result re-encoded the way protocol frames encode values.

        A finished job is usually fetched by every client coalesced onto
        it, so the worker's indented text is parsed and compacted once
        per job, not once per reply.
        """
        if self._result_frame is None:
            if self.result_json is None:
                raise ValueError(f"job {self.id} has no result")
            self._result_frame = json.dumps(
                json.loads(self.result_json), separators=(",", ":"), sort_keys=True
            )
        return self._result_frame

    # ------------------------------------------------------------------
    # Transitions (the service is the only caller).
    # ------------------------------------------------------------------

    def mark_running(self) -> None:
        self.state = JobState.RUNNING
        if self.started_at is None:
            self.started_at = time.time()

    def mark_done(self, result_json: str) -> None:
        self.result_json = result_json
        self.state = JobState.DONE
        self._finish()

    def mark_failed(self, code: str, message: str) -> None:
        self.error_code = code
        self.error = message
        self.state = JobState.FAILED
        self._finish()

    def mark_cancelled(self, message: str = "cancelled") -> None:
        self.error_code = "cancelled"
        self.error = message
        self.state = JobState.CANCELLED
        self._finish()

    def _finish(self) -> None:
        self.finished_at = time.time()
        if self.done_event is not None:
            self.done_event.set()


class QueueFull(Exception):
    """Internal signal; the service converts it to BackpressureError."""


class JobQueue:
    """Bounded max-priority queue of :class:`Job` (asyncio-native)."""

    def __init__(self, max_depth: int) -> None:
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        self.max_depth = max_depth
        self._heap: list[tuple[int, int, Job]] = []
        self._seq = itertools.count()
        self._event = asyncio.Event()
        self._closed = False

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return sum(1 for _ in self._pending())

    def _pending(self) -> Iterator[Job]:
        return (
            job for _, _, job in self._heap if job.state is JobState.QUEUED
        )

    @property
    def full(self) -> bool:
        return len(self) >= self.max_depth

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------

    def push(self, job: Job) -> None:
        """Enqueue; raises :class:`QueueFull` past ``max_depth``."""
        if self._closed:
            raise RuntimeError("queue is closed")
        if self.full:
            raise QueueFull(
                f"queue at capacity ({self.max_depth} pending jobs)"
            )
        heapq.heappush(
            self._heap, (-job.request.priority, next(self._seq), job)
        )
        self._event.set()

    async def pop(self) -> Job | None:
        """Next runnable job, or ``None`` once closed.

        Lazily discards jobs cancelled while queued.  Waits (without
        polling) while the queue is open and empty.  A closed queue
        returns ``None`` immediately even if jobs remain -- shutdown
        persists those instead of dispatching them.
        """
        while True:
            if self._closed:
                return None
            while self._heap:
                _, _, job = heapq.heappop(self._heap)
                if job.state is JobState.QUEUED:
                    return job
            self._event.clear()
            if self._heap:
                continue
            await self._event.wait()

    def close(self) -> None:
        """Stop the consumer: ``pop`` returns ``None`` from now on.

        Jobs still queued stay in the heap -- shutdown snapshots them
        for persistence.
        """
        self._closed = True
        self._event.set()

    # ------------------------------------------------------------------

    def snapshot(self) -> list[dict[str, Any]]:
        """Pending jobs in pop order, as JSON-ready persistence records."""
        ordered = sorted(
            (
                entry
                for entry in self._heap
                if entry[2].state is JobState.QUEUED
            ),
            key=lambda entry: (entry[0], entry[1]),
        )
        return [
            {
                "job_id": job.id,
                "submitted_at": job.submitted_at,
                "request": job.request.to_dict(),
                "request_id": job.request_id,
            }
            for _, _, job in ordered
        ]
