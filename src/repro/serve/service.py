"""The planning service: queueing, dedup, worker lifecycle, shutdown.

:class:`PlanningService` owns the whole job lifecycle inside one
asyncio event loop:

* **admission** (:meth:`submit`) -- dedup/coalescing against in-flight
  jobs by content fingerprint, bounded-queue backpressure with a
  load-based ``retry_after`` estimate;
* **dispatch** -- a single dispatcher task pops jobs in priority order
  and hands them to a bounded worker-slot pool
  (:func:`repro.parallel.resolve_jobs` sizes it, so ``REPRO_JOBS``
  means the same thing here as everywhere else in the engine);
* **execution** -- each attempt runs on one of the service's own
  attempt threads, in a warm, killable worker process
  (:class:`repro.serve.worker.WorkerPool`), with per-job timeout,
  cooperative cancellation, and bounded retry with exponential backoff
  for worker *crashes* (deterministic worker errors are not retried);
* **shutdown** (:meth:`shutdown`) -- stops admission, lets in-flight
  jobs drain, persists still-queued jobs to ``state_dir`` so a
  restarted service resubmits them, and closes the worker pool.

Everything the service observes is mirrored three ways: an
authoritative plain-``dict`` counter set served by :meth:`stats`
(always on -- the protocol's ``stats`` op must work without
observability), the service-owned :class:`ServiceTelemetry` layer
backing the ``metrics``/``health`` ops (rolling latency windows,
OpenMetrics exposition; disable with ``ServiceSettings.telemetry``),
and the opt-in global :mod:`repro.obs` registry/tracer
(``serve.jobs_*`` counters, the ``serve.queue_depth`` gauge, one
``serve/attempt`` span per execution) when a context is enabled.

Every job carries a transport-level **request id** minted at admission
(or supplied by the client).  The id is bound to the job's task context
(:func:`repro.obs.logging.bind_request_id`) so every structured log
record of the job's lifecycle carries it, is injected into the worker
payload so a telemetry-collecting subprocess stitches its spans into
the same trace, and is echoed in every protocol response that mentions
the job.
"""

from __future__ import annotations

import asyncio
import contextvars
import json
import os
import tempfile
import time
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

from repro import obs
from repro.obs.logging import bind_request_id, get_logger, new_request_id
from repro.serve.errors import (
    BackpressureError,
    InvalidPlan,
    JobCancelled,
    JobNotFound,
    JobTimeout,
    ShuttingDown,
    WorkerCrashed,
    WorkerError,
)
from repro.serve.jobs import Job, JobQueue, JobState, QueueFull
from repro.serve.protocol import PlanRequest
from repro.serve.telemetry import ServiceTelemetry, health_view
from repro.serve.worker import WorkerPool, run_job_inline

#: Persistence schema of the queue state file.
STATE_SCHEMA_VERSION = 1
STATE_FILENAME = "queue-state.json"

#: Runner signature: (payload, timeout_s=..., should_cancel=...) ->
#: json text, or (json text, telemetry dict) when the payload asked
#: for telemetry and the worker shipped spans/metrics out of band.
Runner = Callable[..., Any]

_LOG = get_logger("repro.serve.service")


@dataclass(frozen=True)
class ServiceSettings:
    """Every tunable of one service instance."""

    #: Worker slots; ``None`` defers to ``REPRO_JOBS`` (else 1), like
    #: every other jobs knob in the engine.
    workers: int | None = None
    #: Queued-job bound; submissions past it get backpressure.
    max_depth: int = 64
    #: Re-executions after a worker *crash* (not other failures).
    max_retries: int = 2
    #: Backoff after the first crash; doubles per retry.
    retry_base_s: float = 0.1
    retry_cap_s: float = 5.0
    #: Deadline for jobs that do not carry their own ``timeout_s``.
    default_timeout_s: float | None = None
    #: ``"process"`` (warm, killable worker processes, one job at a
    #: time each) or ``"thread"`` (in-process; no preemptive
    #: timeout/kill -- degraded platforms and fast tests only).
    isolation: str = "process"
    #: Directory for queue persistence across restarts (``None``: off).
    state_dir: str | None = None
    #: Finished jobs retained for ``status``/``result`` queries.
    history_limit: int = 256
    #: Live telemetry (rolling windows, OpenMetrics exposition).  Off,
    #: the ``metrics``/``health`` ops degrade gracefully (empty
    #: exposition, no rolling block) and every recording call is an
    #: early-out no-op -- the overhead-gate configuration.
    telemetry: bool = True

    def __post_init__(self) -> None:
        if self.isolation not in ("process", "thread"):
            raise ValueError(
                f"isolation must be 'process' or 'thread', "
                f"got {self.isolation!r}"
            )
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    def resolve_workers(self) -> int:
        from repro.parallel import resolve_jobs

        return resolve_jobs(self.workers)


class PlanningService:
    """Concurrent plan execution behind a bounded, deduplicating queue."""

    def __init__(
        self,
        settings: ServiceSettings | None = None,
        *,
        runner: Runner | None = None,
    ) -> None:
        self.settings = settings if settings is not None else ServiceSettings()
        self.workers = self.settings.resolve_workers()
        self.queue = JobQueue(self.settings.max_depth)
        #: Every known job by id (bounded by ``history_limit``).
        self.jobs: dict[str, Job] = {}
        #: fingerprint -> non-terminal job; the dedup index.
        self._inflight: dict[str, Job] = {}
        self._finished_order: deque[str] = deque()
        self.counters: Counter[str] = Counter()
        self.telemetry = ServiceTelemetry(enabled=self.settings.telemetry)
        self.started_at = time.time()
        self._job_seconds_total = 0.0
        #: Warm worker processes; ``None`` unless process isolation
        #: runs the service's own runner.
        self._pool: WorkerPool | None = None
        if runner is not None:
            self._runner = runner
        elif self.settings.isolation == "process":
            self._pool = WorkerPool(self.workers)
            self._runner = self._pool.run
        else:
            self._runner = run_job_inline
        #: One thread per worker slot runs the blocking attempts; made
        #: by :meth:`start`, shut down by :meth:`shutdown`.
        self._executor: ThreadPoolExecutor | None = None
        self._slots = asyncio.Semaphore(self.workers)
        self._dispatcher: asyncio.Task[None] | None = None
        self._worker_tasks: set[asyncio.Task[None]] = set()
        self._accepting = False

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    async def start(self) -> int:
        """Restore any persisted queue and begin dispatching.

        Returns the number of restored jobs.
        """
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve-attempt"
        )
        restored = self._restore_queue()
        self._accepting = True
        self._dispatcher = asyncio.create_task(
            self._dispatch_loop(), name="repro-serve-dispatcher"
        )
        self._set_depth_gauge()
        _LOG.info(
            "service-started",
            workers=self.workers,
            isolation=self.settings.isolation,
            max_depth=self.settings.max_depth,
            telemetry=self.telemetry.enabled,
            restored=restored,
        )
        return restored

    async def shutdown(self, *, drain: bool = True) -> int:
        """Stop admission, settle in-flight work, persist the queue.

        ``drain=True`` (the graceful path, also the SIGTERM path) lets
        running jobs finish; ``drain=False`` cancels them.  Jobs still
        *queued* are persisted to ``state_dir`` either way and restored
        by the next :meth:`start`, and every caller waiting on one gets
        :class:`ShuttingDown` from :meth:`wait`.  Either way the attempt
        threads stop and every worker process is terminated and joined.
        Returns the persisted-job count.
        """
        self._accepting = False
        self.queue.close()
        if not drain:
            # Flag before awaiting the dispatcher: it may be blocked on
            # a worker slot that only a cancelled job will free.
            for job in list(self.jobs.values()):
                if job.state is JobState.RUNNING:
                    job.cancel_requested = True
        if self._dispatcher is not None:
            await self._dispatcher
            self._dispatcher = None
        if self._worker_tasks:
            await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._pool is not None:
            self._pool.close()
        persisted = self._persist_queue()
        for job in self.jobs.values():
            if job.state is JobState.QUEUED and job.done_event is not None:
                job.done_event.set()
        _LOG.info(
            "service-shutdown",
            drain=drain,
            persisted=persisted,
            uptime_s=round(time.time() - self.started_at, 3),
        )
        return persisted

    # ------------------------------------------------------------------
    # Admission.
    # ------------------------------------------------------------------

    def submit(
        self, request: PlanRequest, *, request_id: str | None = None
    ) -> tuple[Job, bool]:
        """Accept, coalesce, or reject one plan request.

        Returns ``(job, deduped)``.  Raises :class:`BackpressureError`
        when the queue is full and :class:`ShuttingDown` once
        :meth:`shutdown` has begun.  ``request_id`` correlates the
        job's logs/spans end to end; the service mints one when the
        caller does not supply it.  A dedup hit keeps the *original*
        job's id (the trace belongs to the computation, not to each
        coalesced submission).
        """
        if not self._accepting:
            raise ShuttingDown("service is shutting down")
        rid = request_id or new_request_id()
        fingerprint = request.fingerprint()
        existing = self._inflight.get(fingerprint)
        if existing is not None and not existing.state.terminal:
            existing.coalesced += 1
            self._count("jobs_deduped")
            obs.instant(
                "serve/deduped", job=existing.id, design=request.design
            )
            _LOG.debug(
                "job-deduped",
                job=existing.id,
                design=request.design,
                coalesced=existing.coalesced,
                original_request_id=existing.request_id,
            )
            return existing, True
        if self.queue.full:
            self._count("jobs_rejected")
            retry_after = self.retry_after_estimate()
            _LOG.warning(
                "job-rejected",
                design=request.design,
                queue_depth=len(self.queue),
                retry_after_s=retry_after,
            )
            raise BackpressureError(
                f"queue full ({len(self.queue)} pending jobs)",
                retry_after=retry_after,
            )
        job = Job(request=request, request_id=rid, fingerprint=fingerprint)
        job.done_event = asyncio.Event()
        try:
            self.queue.push(job)
        except QueueFull:  # racing submission filled the last slot
            self._count("jobs_rejected")
            raise BackpressureError(
                f"queue full ({len(self.queue)} pending jobs)",
                retry_after=self.retry_after_estimate(),
            ) from None
        self.jobs[job.id] = job
        self._inflight[fingerprint] = job
        self._count("jobs_submitted")
        self._set_depth_gauge()
        _LOG.info(
            "job-submitted",
            job=job.id,
            design=request.design,
            width=request.width,
            priority=request.priority,
            queue_depth=len(self.queue),
        )
        return job, False

    def retry_after_estimate(self) -> float:
        """Seconds until a queue slot is plausibly free, from live load."""
        completed = self.counters["jobs_completed"]
        avg = self._job_seconds_total / completed if completed else 2.0
        backlog = len(self.queue) + self.running_count()
        estimate = backlog * avg / max(1, self.workers)
        return round(min(60.0, max(0.5, estimate)), 2)

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------

    def get(self, job_id: str) -> Job:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise JobNotFound(f"no job {job_id!r}") from None

    async def wait(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until the job settles; :class:`ShuttingDown` if it never ran."""
        job = self.get(job_id)
        if job.state.terminal or job.done_event is None:
            return job
        await asyncio.wait_for(job.done_event.wait(), timeout)
        if not job.state.terminal:
            raise ShuttingDown(f"the service stopped before job {job_id} ran")
        return job

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued job now, or flag a running one to stop."""
        job = self.get(job_id)
        if job.state is JobState.QUEUED:
            job.mark_cancelled("cancelled while queued")
            self._forget_inflight(job)
            self._count("jobs_cancelled")
            self._remember_finished(job)
            self._set_depth_gauge()
        elif job.state is JobState.RUNNING:
            job.cancel_requested = True
        return job

    def running_count(self) -> int:
        return sum(
            1 for j in self.jobs.values() if j.state is JobState.RUNNING
        )

    def stats(self) -> dict[str, Any]:
        """The live service picture the protocol's ``stats`` op returns."""
        return {
            "queue_depth": len(self.queue),
            "queue_capacity": self.settings.max_depth,
            "running": self.running_count(),
            "workers": self.workers,
            "isolation": self.settings.isolation,
            "accepting": self._accepting,
            "jobs_known": len(self.jobs),
            "uptime_s": round(time.time() - self.started_at, 3),
            "counters": dict(self.counters),
            "retry_after_hint": self.retry_after_estimate(),
            "telemetry": self.telemetry.enabled,
        }

    def health(self) -> dict[str, Any]:
        """The ``health`` op payload (see :func:`health_view`)."""
        return health_view(
            telemetry=self.telemetry,
            counters=self.counters,
            queue_depth=len(self.queue),
            queue_capacity=self.settings.max_depth,
            running=self.running_count(),
            workers=self.workers,
            accepting=self._accepting,
            dispatcher_alive=self._dispatcher is not None
            and not self._dispatcher.done(),
            uptime_s=time.time() - self.started_at,
        )

    def metrics_text(self) -> str:
        """The ``metrics`` op payload: OpenMetrics exposition text."""
        return self.telemetry.openmetrics()

    # ------------------------------------------------------------------
    # Dispatch and execution.
    # ------------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            # Slot first, then pop: a job must stay *queued* (and count
            # toward the backpressure bound) until a worker can actually
            # take it, so capacity is exactly max_depth + workers.
            await self._slots.acquire()
            job = await self.queue.pop()
            if job is None:
                self._slots.release()
                return
            if job.state is not JobState.QUEUED:
                self._slots.release()
                continue
            task = asyncio.create_task(
                self._run_job(job), name=f"repro-serve-{job.id}"
            )
            self._worker_tasks.add(task)
            task.add_done_callback(self._worker_tasks.discard)

    async def _run_job(self, job: Job) -> None:
        with bind_request_id(job.request_id):
            await self._run_job_bound(job)

    async def _run_job_bound(self, job: Job) -> None:
        request = job.request
        timeout_s = (
            request.timeout_s
            if request.timeout_s is not None
            else self.settings.default_timeout_s
        )
        job.mark_running()
        self._set_depth_gauge()
        self._record_queue_wait(job)
        _LOG.info(
            "job-started",
            job=job.id,
            design=request.design,
            width=request.width,
            queued_s=round(
                (job.started_at or job.submitted_at) - job.submitted_at, 6
            ),
        )
        try:
            attempts = self.settings.max_retries + 1
            for attempt in range(attempts):
                if job.cancel_requested:
                    job.mark_cancelled("cancelled before attempt")
                    self._count("jobs_cancelled")
                    break
                if attempt:
                    delay = min(
                        self.settings.retry_cap_s,
                        self.settings.retry_base_s * (2 ** (attempt - 1)),
                    )
                    self._count("jobs_retried")
                    obs.instant(
                        "serve/retry", job=job.id, attempt=attempt,
                        backoff_s=delay,
                    )
                    await asyncio.sleep(delay)
                job.attempts = attempt + 1
                try:
                    # The service's own threads, one per slot: the
                    # loop's default executor has fewer threads than
                    # slots on small hosts.  The copied context carries
                    # the bound request id, as asyncio.to_thread does.
                    text = await asyncio.get_running_loop().run_in_executor(
                        self._executor,
                        contextvars.copy_context().run,
                        self._execute_attempt,
                        job,
                        attempt,
                        timeout_s,
                    )
                except WorkerCrashed as error:
                    if attempt + 1 >= attempts:
                        job.mark_failed(
                            error.code,
                            f"{error} ({job.attempts} attempts)",
                        )
                        self._count("jobs_failed")
                        break
                    continue
                except JobTimeout as error:
                    job.mark_failed(error.code, str(error))
                    self._count("jobs_failed")
                    self._count("jobs_timed_out")
                    break
                except JobCancelled as error:
                    job.mark_cancelled(str(error))
                    self._count("jobs_cancelled")
                    break
                except InvalidPlan as error:
                    # The verification gate tripped: a planner defect,
                    # deterministic, so no retry -- but counted apart
                    # from ordinary worker errors for alerting.
                    job.mark_failed(error.code, str(error))
                    self._count("jobs_failed")
                    self._count("jobs_invalid_plan")
                    break
                except WorkerError as error:
                    job.mark_failed(error.code, str(error))
                    self._count("jobs_failed")
                    break
                except Exception as error:  # service-side defect
                    job.mark_failed("service-error", repr(error))
                    self._count("jobs_failed")
                    break
                else:
                    job.mark_done(text)
                    self._count("jobs_completed")
                    if job.started_at and job.finished_at:
                        seconds = job.finished_at - job.started_at
                        self._job_seconds_total += seconds
                        obs.observe("serve.job_seconds", seconds)
                        self.telemetry.observe_execution(seconds)
                    break
        finally:
            if not job.state.terminal:  # defensive: never leave limbo
                job.mark_failed("service-error", "attempt loop fell through")
                self._count("jobs_failed")
            if job.finished_at is not None:
                self.telemetry.observe_turnaround(
                    job.finished_at - job.submitted_at
                )
            self._forget_inflight(job)
            self._remember_finished(job)
            self._slots.release()
            self._set_depth_gauge()
            log = _LOG.info if job.state is JobState.DONE else _LOG.warning
            log(
                "job-finished",
                job=job.id,
                state=job.state.value,
                attempts=job.attempts,
                error_code=job.error_code,
                seconds=round(
                    (job.finished_at or 0.0) - (job.started_at or 0.0), 6
                )
                if job.started_at and job.finished_at
                else None,
            )

    def _execute_attempt(
        self, job: Job, attempt: int, timeout_s: float | None
    ) -> str:
        """One blocking attempt; runs on an attempt thread.

        Under an enabled observability context the worker payload asks
        the subprocess to collect telemetry; the spans it ships back
        are re-rooted under this attempt's span path (stamped with the
        job's request id), which is what stitches the client -> queue
        -> worker trace into one hierarchy across process boundaries.
        """
        payload = job.request.worker_payload(attempt)
        payload["request_id"] = job.request_id
        if obs.is_enabled():
            payload["telemetry"] = True
        with obs.span(
            "serve/attempt",
            job=job.id,
            design=job.request.design,
            width=job.request.width,
            attempt=attempt,
            request_id=job.request_id,
        ):
            outcome = self._runner(
                payload,
                timeout_s=timeout_s,
                should_cancel=lambda: job.cancel_requested,
            )
            if isinstance(outcome, tuple):
                text, shipped = outcome
                self._absorb_worker_telemetry(job, shipped)
                return str(text)
            return str(outcome)

    def _record_queue_wait(self, job: Job) -> None:
        """Retrospective ``serve/queued`` span (obs-enabled runs only).

        The wait is only known once dispatch happens, so the span is
        synthesized after the fact and merged rather than recorded by
        a context manager wrapping the wait.
        """
        active = obs.current()
        if active is None:
            return
        active.tracer.merge(
            [
                {
                    "name": "serve/queued",
                    "path": "serve/queued",
                    "start": job.submitted_at,
                    "end": job.started_at or time.time(),
                    "attrs": {
                        "job": job.id,
                        "request_id": job.request_id,
                        "design": job.request.design,
                    },
                    "pid": os.getpid(),
                }
            ]
        )

    def _absorb_worker_telemetry(
        self, job: Job, shipped: Mapping[str, Any]
    ) -> None:
        """Merge a worker subprocess's spans/metrics into this process.

        Called *inside* the ``serve/attempt`` span so
        ``tracer.current_path()`` names the re-root point.  Every
        incoming span gets the job's request id stamped into its
        attributes (without overwriting one the worker set itself).
        """
        spans = list(shipped.get("spans") or [])
        active = obs.current()
        if active is not None and spans:
            for span in spans:
                span.setdefault("attrs", {}).setdefault(
                    "request_id", job.request_id
                )
            active.tracer.merge(
                spans, parent_path=active.tracer.current_path()
            )
        metrics = shipped.get("metrics") or {}
        if metrics:
            if active is not None:
                active.registry.merge(metrics)
            self.telemetry.merge_worker_metrics(metrics)

    # ------------------------------------------------------------------
    # Internal bookkeeping.
    # ------------------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount
        self.telemetry.count(name, amount)
        obs.inc(f"serve.{name}", amount)

    def _set_depth_gauge(self) -> None:
        depth = len(self.queue)
        self.telemetry.set_queue_depth(depth)
        obs.set_gauge("serve.queue_depth", float(depth))

    def _forget_inflight(self, job: Job) -> None:
        if self._inflight.get(job.fingerprint) is job:
            del self._inflight[job.fingerprint]

    def _remember_finished(self, job: Job) -> None:
        """Bound the finished-job history to ``history_limit``."""
        self._finished_order.append(job.id)
        while len(self._finished_order) > self.settings.history_limit:
            old_id = self._finished_order.popleft()
            old = self.jobs.get(old_id)
            if old is not None and old.state.terminal:
                del self.jobs[old_id]

    # ------------------------------------------------------------------
    # Queue persistence.
    # ------------------------------------------------------------------

    def _state_path(self) -> Path | None:
        if not self.settings.state_dir:
            return None
        return Path(self.settings.state_dir).expanduser() / STATE_FILENAME

    def _persist_queue(self) -> int:
        """Write still-queued jobs for the next service generation."""
        path = self._state_path()
        pending = self.queue.snapshot()
        if path is None:
            return 0
        if not pending:
            path.unlink(missing_ok=True)
            return 0
        payload = {
            "schema": STATE_SCHEMA_VERSION,
            "saved_at": time.time(),
            "jobs": pending,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        # Same atomic-publish discipline as the analysis cache: a
        # crashed write must never leave a half-readable state file.
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".queue-state-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.counters["jobs_persisted"] += len(pending)
        return len(pending)

    def _restore_queue(self) -> int:
        """Re-enqueue jobs a previous generation persisted, if any."""
        path = self._state_path()
        if path is None or not path.exists():
            return 0
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            if payload.get("schema") != STATE_SCHEMA_VERSION:
                raise ValueError(f"schema {payload.get('schema')!r}")
            records = list(payload["jobs"])
        except (OSError, ValueError, KeyError, TypeError):
            # A corrupt state file must not block startup; the jobs it
            # held are lost, which clients discover via not-found.
            path.unlink(missing_ok=True)
            self.counters["state_corrupt"] += 1
            return 0
        path.unlink(missing_ok=True)
        restored = 0
        for record in records:
            try:
                request = PlanRequest.from_dict(record["request"])
                job = Job(
                    request=request,
                    fingerprint=request.fingerprint(),
                    id=str(record["job_id"]),
                    request_id=str(record.get("request_id") or "")
                    or new_request_id(),
                )
                job.submitted_at = float(
                    record.get("submitted_at", job.submitted_at)
                )
            except Exception:
                self.counters["state_corrupt"] += 1
                continue
            job.done_event = asyncio.Event()
            self.jobs[job.id] = job
            self._inflight[job.fingerprint] = job
            self.queue.push(job)
            restored += 1
        if restored:
            self._count("jobs_restored", restored)
        return restored


def designs_catalog() -> list[dict[str, Any]]:
    """The design-discovery payload (the ``designs`` protocol op)."""
    from repro.soc.industrial import design_catalog

    return [dict(row) for row in design_catalog()]


def request_from_mapping(data: Mapping[str, Any]) -> PlanRequest:
    """Convenience used by both the server and local embedding."""
    return PlanRequest.from_dict(data)
