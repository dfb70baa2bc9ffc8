"""Worker-side job execution: warm, supervised planning processes.

The service plans every job attempt in a long-lived ``multiprocessing``
child (``spawn`` context -- fork is unsafe under the service's threaded
asyncio loop).  Each child runs :func:`_worker_loop`: it takes one
payload at a time over a duplex pipe and answers it, so only a
worker's first job pays the spawn and the import of numpy and
``repro``, and a design that repeats in the same worker reuses its
analyses.  A :class:`WorkerPool` starts a worker when a slot first
needs one and hands idle workers to later jobs.  The parent supervises
every job:

* **timeout** -- the parent polls the pipe with a deadline and
  *terminates* the worker when it expires, so a runaway plan cannot
  wedge a worker slot (the slot's next job starts a new worker);
* **cancellation** -- the parent polls a cancel flag between pipe
  polls and terminates the worker on request;
* **crash detection** -- a worker that dies without replying (killed,
  OOM, ``os._exit``) is surfaced as :class:`WorkerCrashed`, the one
  failure the service retries with backoff.

Between jobs a worker keeps only the planning engine's bounded memos
(the analysis memo, at most 4,096 entries, and the wrapper memo, at
most 65,536).  It is retired after an ``"error"`` reply (its memos may
be half built), after :data:`WORKER_MAX_JOBS` jobs, or once its peak
RSS passes :data:`WORKER_MAX_RSS_MB`.  A worker whose parent dies reads
EOF on its pipe and exits.  :func:`run_job_in_process` is one job on
the same worker type: start, run, close.

``run_job_inline`` is the degraded fallback for platforms where
multiprocessing cannot spawn (restricted sandboxes) and the fast path
for tests: same contract minus preemptive timeout/kill (a thread cannot
be terminated), sharing the parent's in-process analysis memo.

The ``fault`` request field is the chaos hook the fault-injection tests
drive: ``{"sleep_s": 30}`` delays the worker (timeout tests),
``{"exit_on_attempts": [0]}`` hard-kills the worker on the listed
attempt indices (crash/retry tests), ``{"corrupt_plan": "overlap"}``
tampers with the finished plan so the verification gate trips
(invalid-plan tests).  Normal clients never set it; it participates in
the dedup fingerprint so faulty requests cannot coalesce with clean
ones.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import threading
import time
from multiprocessing.connection import Connection
from typing import Any, Callable, Mapping, NoReturn

from repro.serve.errors import (
    InvalidPlan,
    JobCancelled,
    JobTimeout,
    WorkerCrashed,
    WorkerError,
)

#: Seconds between pipe polls; bounds cancel/timeout reaction latency.
POLL_INTERVAL_S = 0.05

#: Exit code the fault hook uses; distinctive in failure messages.
FAULT_EXIT_CODE = 43

#: Jobs a worker plans before it is retired and replaced.
WORKER_MAX_JOBS = 500

#: Peak RSS (MiB) past which a worker is retired after its reply.
WORKER_MAX_RSS_MB = 512.0


def execute_plan(
    payload: Mapping[str, Any], *, strip_report: bool = False
) -> str:
    """Run one plan request to its ``result_to_json`` text.

    Pure apart from the planning engine's own caches: the payload is
    the :meth:`~repro.serve.protocol.PlanRequest.worker_payload` dict,
    the return value the lossless JSON the transport ships verbatim.

    Every result is checked by the independent invariant checker
    before it is serialized; a violation raises :class:`InvalidPlan`,
    so the service never replies with a plan it cannot prove
    consistent.  A plan the built-in verify stage has already checked
    inside :func:`~repro.pipeline.plan` (``config.verify``, with the
    registry's ``("verify", "invariants")`` entry still
    :class:`~repro.pipeline.stages.VerifyStage`, and a ``verify`` row in
    its ``stage_timings``) is not checked twice.
    The ``corrupt_plan`` fault hook tampers with the plan between
    planning and verification, for testing that gate; a tampered plan
    is always checked.

    ``strip_report=True`` drops the :class:`~repro.obs.report.RunReport`
    the pipeline attaches under an enabled observability context.  The
    telemetry-collecting subprocess path uses it so the wire result
    stays byte-identical with telemetry on or off (the report carries
    wall-clock timings; spans and metrics ship out of band instead).
    """
    import dataclasses

    from repro.pipeline import RunConfig, VerifyStage, stage_factory
    from repro.pipeline import plan as run_plan
    from repro.reporting.export import result_to_json
    from repro.soc.industrial import load_design
    from repro.verify import corrupt_result, verify_plan
    from repro.verify.invariants import PlanVerificationError

    soc = load_design(str(payload["design"]))
    config = RunConfig.from_dict(payload.get("config") or {})
    try:
        result = run_plan(soc, int(payload["width"]), config)
    except PlanVerificationError as error:
        # A config.verify pipeline already failed its own gate.
        raise InvalidPlan(str(error)) from error
    corrupt = (payload.get("fault") or {}).get("corrupt_plan")
    if corrupt:
        result = corrupt_result(result, str(corrupt))
    verified = (
        config.verify
        and stage_factory("verify", "invariants") is VerifyStage
        and any(stage == VerifyStage.name for stage, _ in result.stage_timings)
    )
    if corrupt or not verified:
        report = verify_plan(result, soc, config=config)
        if not report.ok:
            raise InvalidPlan(report.summary())
    if strip_report and result.report is not None:
        result = dataclasses.replace(result, report=None)
    return result_to_json(result)


def _apply_fault_hooks(payload: Mapping[str, Any]) -> None:
    fault = payload.get("fault") or {}
    sleep_s = fault.get("sleep_s")
    if sleep_s:
        time.sleep(float(sleep_s))
    attempt = int(payload.get("attempt", 0))
    if attempt in tuple(fault.get("exit_on_attempts", ())):
        os._exit(FAULT_EXIT_CODE)


def _worker_loop(conn: Connection) -> None:
    """Child-process main: plan each payload from ``conn`` until EOF.

    Every reply is ``(kind, value, telemetry, peak_rss_mb)``: ``"ok"``
    with the result text, or ``"invalid"`` / ``"error"`` with a
    message; ``telemetry`` is ``None`` unless the payload asked for it;
    ``peak_rss_mb`` is this process's high-water RSS, which the parent
    checks against :data:`WORKER_MAX_RSS_MB`.

    SIGINT is ignored: a Ctrl-C on the server's terminal reaches the
    whole process group, and the server, not its workers, decides how
    running jobs end.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            payload = conn.recv()
        except (EOFError, OSError):
            return  # the parent closed the pipe, or died
        kind, value, telemetry = _plan_one(payload)
        try:
            conn.send((kind, value, telemetry, _peak_rss_mb()))
        except OSError:
            return


def _plan_one(payload: Mapping[str, Any]) -> tuple[str, str, Any]:
    """One job in the worker: ``(kind, value, telemetry)``.

    When the parent asked for telemetry (``payload["telemetry"]``), the
    job plans under a scoped observability context of its own and
    ships the collected spans and metrics *out of band* -- the result
    text itself stays byte-identical with telemetry on or off (see
    ``execute_plan(strip_report=True)``).  The parent re-roots the
    spans under its attempt span, stitching the cross-process trace
    together per request id.  The context and the request id binding
    end with the job, so nothing recorded carries over to the next.
    """
    from repro import obs
    from repro.obs.logging import bind_request_id

    # Never attach run reports the parent did not ask for: a spawned
    # child starts clean, but be explicit for any platform that
    # inherits an enabled context.
    obs.disable()
    request_id = str(payload.get("request_id") or "")
    try:
        _apply_fault_hooks(payload)
        if not payload.get("telemetry"):
            return "ok", execute_plan(payload), None
        with obs.enabled() as active, bind_request_id(request_id):
            with obs.span(
                "worker/plan",
                request_id=request_id,
                design=str(payload.get("design", "")),
                width=int(payload.get("width", 0)),
                pid=os.getpid(),
            ):
                text = execute_plan(payload, strip_report=True)
        shipped = {
            "spans": active.tracer.snapshot(),
            "metrics": active.registry.snapshot(),
        }
        return "ok", text, shipped
    except InvalidPlan as error:
        # Typed separately so the parent re-raises the dedicated code
        # (the generic branch collapses everything to WorkerError).
        return "invalid", str(error), None
    except Exception as error:  # noqa: BLE001 - ships the failure
        # The parent retires the worker after this reply.  SystemExit
        # and the like end the loop instead, which the parent sees as
        # a crash.
        return "error", f"{type(error).__name__}: {error}", None


def _peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (0 where unknown)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - not POSIX
        return 0.0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is in bytes on macOS and in KiB elsewhere.
    return peak / (1 << 20) if sys.platform == "darwin" else peak / 1024


class _Worker:
    """One spawned :func:`_worker_loop` child and the parent's pipe end."""

    def __init__(self) -> None:
        ctx = multiprocessing.get_context("spawn")
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_worker_loop, args=(child_conn,), daemon=True
        )
        try:
            self.proc.start()
        except BaseException:
            self.conn.close()
            raise
        finally:
            child_conn.close()
        self.jobs = 0
        self.peak_rss_mb = 0.0

    def run(
        self,
        payload: Mapping[str, Any],
        *,
        timeout_s: float | None,
        should_cancel: Callable[[], bool] | None,
        poll_interval_s: float,
    ) -> tuple[str, str, Any]:
        """Send one payload and wait for its ``(kind, value, telemetry)``.

        Raises :class:`JobTimeout` / :class:`JobCancelled` after
        terminating the worker, and :class:`WorkerCrashed` when it dies
        without replying.  A worker that raised is closed.
        """
        deadline = (
            time.monotonic() + float(timeout_s)
            if timeout_s is not None
            else None
        )
        try:
            self.conn.send(dict(payload))
        except OSError:
            self._crashed()
        while True:
            if self.conn.poll(poll_interval_s):
                try:
                    kind, value, telemetry, self.peak_rss_mb = self.conn.recv()
                except (EOFError, OSError):
                    break  # died after the send: crashed
                self.jobs += 1
                return kind, value, telemetry
            if should_cancel is not None and should_cancel():
                self.close()
                raise JobCancelled("cancelled while running")
            if deadline is not None and time.monotonic() > deadline:
                self.close()
                raise JobTimeout(
                    f"exceeded {timeout_s:.3g} s deadline; worker terminated"
                )
            if not self.proc.is_alive() and not self.conn.poll():
                break
        self._crashed()

    def _crashed(self) -> NoReturn:
        self.proc.join(timeout=5.0)
        self.close()
        raise WorkerCrashed(
            f"worker died without a result (exit code {self.proc.exitcode})",
            exitcode=self.proc.exitcode,
        )

    def worn_out(self) -> bool:
        """Whether the job or memory limit says to retire this worker."""
        return (
            self.jobs >= WORKER_MAX_JOBS
            or self.peak_rss_mb > WORKER_MAX_RSS_MB
        )

    def close(self) -> None:
        """Terminate and reap the child (a dead one is just reaped)."""
        self.conn.close()
        self.proc.terminate()
        self.proc.join(timeout=5.0)
        if self.proc.is_alive():  # pragma: no cover - last resort
            self.proc.kill()
            self.proc.join(timeout=5.0)


def _outcome(
    kind: str, value: str, telemetry: Any
) -> str | tuple[str, dict[str, Any]]:
    """A worker reply as the runner contract returns or raises it."""
    if kind == "ok":
        return (str(value), dict(telemetry)) if telemetry else str(value)
    if kind == "invalid":
        raise InvalidPlan(str(value))
    raise WorkerError(str(value))


class WorkerPool:
    """Warm spawned workers behind the service's runner signature.

    :meth:`run` hands the job to an idle live worker, or starts one, so
    no worker starts before a job needs it and no more are live than
    jobs run at once.  After an ``"ok"`` or ``"invalid"`` reply the
    worker goes back to the idle list (at most ``size`` of them) unless
    it is worn out; every other ending retires it.  :meth:`close`
    terminates and joins the idle workers.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self._idle: list[_Worker] = []
        self._lock = threading.Lock()

    def run(
        self,
        payload: Mapping[str, Any],
        *,
        timeout_s: float | None = None,
        should_cancel: Callable[[], bool] | None = None,
        poll_interval_s: float = POLL_INTERVAL_S,
    ) -> str | tuple[str, dict[str, Any]]:
        """Execute one attempt on a warm worker (blocking).

        Same contract as :func:`run_job_in_process`.
        """
        worker = self._checkout()
        try:
            kind, value, telemetry = worker.run(
                payload,
                timeout_s=timeout_s,
                should_cancel=should_cancel,
                poll_interval_s=poll_interval_s,
            )
        except BaseException:
            worker.close()
            raise
        if kind == "error" or worker.worn_out():
            worker.close()
        else:
            self._checkin(worker)
        return _outcome(kind, value, telemetry)

    def close(self) -> None:
        """Terminate and join every idle worker."""
        with self._lock:
            idle, self._idle = self._idle, []
        for worker in idle:
            worker.close()

    def _checkout(self) -> _Worker:
        """An idle live worker, else a new one; dead ones are replaced."""
        while True:
            with self._lock:
                worker = self._idle.pop() if self._idle else None
            if worker is None:
                return _Worker()
            if worker.proc.is_alive():
                return worker
            worker.close()

    def _checkin(self, worker: _Worker) -> None:
        with self._lock:
            if len(self._idle) < self.size:
                self._idle.append(worker)
                return
        worker.close()


def run_job_in_process(
    payload: Mapping[str, Any],
    *,
    timeout_s: float | None = None,
    should_cancel: Callable[[], bool] | None = None,
    poll_interval_s: float = POLL_INTERVAL_S,
) -> str | tuple[str, dict[str, Any]]:
    """Execute one attempt on a fresh worker, then close it (blocking).

    Returns the result text -- or, when the payload requested
    telemetry and the worker shipped some, a ``(text, telemetry)``
    tuple where ``telemetry`` holds the worker's portable ``spans`` and
    ``metrics`` snapshots for the parent to merge.

    Raises :class:`JobTimeout` / :class:`JobCancelled` after
    terminating the worker, :class:`WorkerCrashed` when the worker dies
    silently, :class:`WorkerError` when the worker reports a
    deterministic failure (:class:`InvalidPlan` for a failed
    verification gate).
    """
    worker = _Worker()
    try:
        reply = worker.run(
            payload,
            timeout_s=timeout_s,
            should_cancel=should_cancel,
            poll_interval_s=poll_interval_s,
        )
    finally:
        worker.close()
    return _outcome(*reply)


def run_job_inline(
    payload: Mapping[str, Any],
    *,
    timeout_s: float | None = None,
    should_cancel: Callable[[], bool] | None = None,
    poll_interval_s: float = POLL_INTERVAL_S,
) -> str:
    """Thread-mode attempt: no process isolation, best-effort checks.

    Cancellation and timeout are honored only *before* the plan starts
    (a running thread cannot be killed); ``fault`` exit hooks are
    ignored (they would take the whole service down).
    """
    del poll_interval_s
    if should_cancel is not None and should_cancel():
        raise JobCancelled("cancelled before start")
    started = time.monotonic()
    text = execute_plan(payload)
    if timeout_s is not None and time.monotonic() - started > timeout_s:
        raise JobTimeout(
            f"finished after its {timeout_s:.3g} s deadline (inline worker "
            "cannot preempt); result discarded"
        )
    return text


def process_isolation_available() -> bool:
    """Whether the spawn-based worker can run on this platform."""
    try:
        ctx = multiprocessing.get_context("spawn")
        proc = ctx.Process(target=_noop, daemon=True)
        proc.start()
        proc.join(timeout=30.0)
        return proc.exitcode == 0
    except Exception:
        return False


def _noop() -> None:
    return None
