"""The line-JSON TCP front end of the planning service.

Stdlib-only transport: ``asyncio.start_server`` on a host/port (port 0
lets the OS pick -- the ready announcement carries the real one), one
JSON object per line in each direction (:mod:`repro.serve.protocol`).

Operations::

    ping                          liveness + protocol version
    designs                       the design catalog (name discovery)
    submit   design width ...     enqueue (or coalesce) a plan request
    status   [job_id]             one job's state, or service stats
    result   job_id [wait] [timeout_s]   fetch (optionally await) a result
    cancel   job_id               cancel queued / flag running
    stats                         queue depth, counters, load hints
    metrics                       OpenMetrics exposition text
    health                        liveness, rolling latency, error budget
    shutdown [drain]              drain and stop the server

Every request is correlated: the server adopts the client's
``request_id`` field (minting one when absent) and binds it for the
duration of the dispatch, so every structured log record and span the
request causes carries it.  Responses that name a job report the
*job's* correlation id -- for a dedup hit that is the original
submission's id, i.e. the trace this submission joined; every other
response echoes the caller's id.

``SIGTERM``/``SIGINT`` trigger the same graceful path as the
``shutdown`` op: stop accepting, drain in-flight jobs, persist the
queue, exit 0.
"""

from __future__ import annotations

import asyncio
import os
import signal
from typing import Any, Callable

from repro import obs
from repro.obs.logging import bind_request_id, current_request_id, get_logger
from repro.serve.errors import ServiceError
from repro.serve.jobs import JobState
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    PlanRequest,
    RawJSON,
    decode_message,
    encode_message,
    error_response,
    job_brief,
    ok_response,
)
from repro.serve.service import PlanningService, designs_catalog

_LOG = get_logger("repro.serve.server")

#: Default TCP port of `repro-soc serve` (clients share the constant).
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7465

#: Ceiling for one request line; a frame beyond it is a client bug.
MAX_LINE_BYTES = 1 << 20

#: How long :meth:`ServiceServer.stop` waits for the handlers the drain
#: woke to reply, then for the idle ones it closed to finish.
HANDLER_CLOSE_S = 1.0


class ServiceServer:
    """Socket front end binding one :class:`PlanningService`."""

    def __init__(
        self,
        service: PlanningService,
        *,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        #: Open connections (handler task -> stream writer), and the
        #: handlers among them that wait for their next request.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._idle: set[asyncio.Task] = set()
        #: Set by the ``shutdown`` op or a signal; awaited by ``serve_until_stopped``.
        self.stop_requested: asyncio.Event = asyncio.Event()
        self._drain_on_stop = True

    # ------------------------------------------------------------------

    async def start(self) -> None:
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.host,
            port=self.port,
            limit=MAX_LINE_BYTES,
        )
        sockets = self._server.sockets or ()
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def stop(self) -> int:
        """Close the listener, drain the service, then close the connections.

        Handlers the drain woke reply first; idle ones end on the EOF
        before the loop stops (one the loop cancels logs a traceback; on
        Python 3.12+ ``wait_closed`` waits for every connection).
        """
        if self._server is not None:
            self._server.close()
        persisted = await self.service.shutdown(drain=self._drain_on_stop)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + HANDLER_CLOSE_S
        while self._idle != set(self._connections) and loop.time() < deadline:
            await asyncio.sleep(0.01)
        for writer in self._connections.values():
            writer.close()
        if self._idle:
            await asyncio.wait(list(self._idle), timeout=HANDLER_CLOSE_S)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        return persisted

    def request_stop(self, *, drain: bool = True) -> None:
        self._drain_on_stop = drain and self._drain_on_stop
        self.stop_requested.set()

    async def serve_until_stopped(self) -> int:
        """Run until a stop is requested; returns persisted-job count."""
        await self.stop_requested.wait()
        return await self.stop()

    def ready_announcement(self) -> dict[str, Any]:
        """The machine-readable line the CLI prints once listening."""
        return {
            "event": "ready",
            "host": self.host,
            "port": self.port,
            "pid": os.getpid(),
            "protocol": PROTOCOL_VERSION,
            "workers": self.service.workers,
            "isolation": self.service.settings.isolation,
            "telemetry": self.service.telemetry.enabled,
        }

    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None  # a stream handler always runs as a task
        self._connections[task] = writer
        try:
            while True:
                self._idle.add(task)
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(
                        encode_message(
                            error_response("bad-request", "request too large")
                        )
                    )
                    await writer.drain()
                    break
                finally:
                    self._idle.discard(task)
                if not line:
                    break
                response = await self._respond(line)
                writer.write(encode_message(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            del self._connections[task]
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _respond(self, line: bytes) -> dict[str, Any]:
        try:
            message = decode_message(line)
        except ServiceError as error:
            self.service.telemetry.count("requests")
            self.service.telemetry.count("request_errors")
            return dict(error.to_payload(), v=PROTOCOL_VERSION)
        rid = str(message.get("request_id") or "")
        with bind_request_id(rid) as bound:
            self.service.telemetry.count("requests")
            try:
                response = await self._dispatch(message)
            except ServiceError as error:
                response = dict(error.to_payload(), v=PROTOCOL_VERSION)
            except Exception as error:  # never let a defect kill the reader
                _LOG.error(
                    "request-failed",
                    op=str(message.get("op")),
                    error=repr(error),
                )
                response = error_response("internal", repr(error))
            if not response.get("ok", False):
                self.service.telemetry.count("request_errors")
            response.setdefault("request_id", bound)
            return response

    async def _dispatch(self, message: dict[str, Any]) -> dict[str, Any]:
        op = message.get("op")
        if op == "ping":
            return ok_response(pong=True, protocol=PROTOCOL_VERSION)
        if op == "designs":
            return ok_response(designs=designs_catalog())
        if op == "submit":
            return self._op_submit(message)
        if op == "status":
            return self._op_status(message)
        if op == "result":
            return await self._op_result(message)
        if op == "cancel":
            job = self.service.cancel(self._job_id(message))
            return ok_response(**job_brief(job))
        if op == "stats":
            return ok_response(stats=self.service.stats())
        if op == "metrics":
            return ok_response(metrics=self.service.metrics_text())
        if op == "health":
            return ok_response(health=self.service.health())
        if op == "shutdown":
            drain = bool(message.get("drain", True))
            self.request_stop(drain=drain)
            return ok_response(stopping=True, drain=drain)
        return error_response("bad-request", f"unknown op {op!r}")

    # ------------------------------------------------------------------

    @staticmethod
    def _job_id(message: dict[str, Any]) -> str:
        job_id = message.get("job_id")
        if not job_id:
            from repro.serve.errors import ProtocolError

            raise ProtocolError("missing job_id")
        return str(job_id)

    def _op_submit(self, message: dict[str, Any]) -> dict[str, Any]:
        request = PlanRequest.from_dict(message)
        rid = current_request_id()
        # Synchronous op, so a span on the loop thread cannot interleave
        # with another task's (the tracer's span stack is thread-local).
        with obs.span(
            "serve/submit",
            design=request.design,
            width=request.width,
            request_id=rid,
        ):
            job, deduped = self.service.submit(request, request_id=rid)
        return ok_response(deduped=deduped, **job_brief(job))

    def _op_status(self, message: dict[str, Any]) -> dict[str, Any]:
        if not message.get("job_id"):
            return ok_response(stats=self.service.stats())
        job = self.service.get(self._job_id(message))
        return ok_response(**job_brief(job))

    async def _op_result(self, message: dict[str, Any]) -> dict[str, Any]:
        job_id = self._job_id(message)
        wait = bool(message.get("wait", True))
        timeout = message.get("timeout_s")
        job = self.service.get(job_id)
        if wait and not job.state.terminal:
            try:
                job = await self.service.wait(
                    job_id, float(timeout) if timeout is not None else None
                )
            except asyncio.TimeoutError:
                return error_response(
                    "timeout",
                    f"job {job_id} still {job.state.value} after wait",
                    **job_brief(job),
                )
        if job.state is JobState.DONE and job.result_json is not None:
            return ok_response(result=RawJSON(job.result_frame()), **job_brief(job))
        if job.state.terminal:
            return error_response(
                job.error_code or "job-failed",
                job.error or f"job {job_id} {job.state.value}",
                **job_brief(job),
            )
        return error_response(
            "not-ready", f"job {job_id} is {job.state.value}", **job_brief(job)
        )


# ---------------------------------------------------------------------------
# Blocking entry point (what `repro-soc serve` runs).
# ---------------------------------------------------------------------------


def run_server(
    service: PlanningService,
    *,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    on_ready: Callable[[dict[str, Any]], None] | None = None,
    on_stopped: Callable[[dict[str, Any]], None] | None = None,
) -> int:
    """Serve until ``shutdown``/SIGTERM/SIGINT; returns an exit code.

    The library owns no output stream: the caller (the CLI) renders
    the ready/stopped events via the callbacks -- ``on_ready`` fires
    once the socket is listening (with the real port, pid, and worker
    picture), ``on_stopped`` after shutdown (with the persisted-job
    count and final counters).
    """
    return asyncio.run(
        _serve_main(
            service,
            host=host,
            port=port,
            on_ready=on_ready,
            on_stopped=on_stopped,
        )
    )


async def _serve_main(
    service: PlanningService,
    *,
    host: str,
    port: int,
    on_ready: Callable[[dict[str, Any]], None] | None,
    on_stopped: Callable[[dict[str, Any]], None] | None,
) -> int:
    server = ServiceServer(service, host=host, port=port)
    await server.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, server.request_stop)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # platform without signal handlers; shutdown op only
    if on_ready is not None:
        on_ready(server.ready_announcement())
    persisted = await server.serve_until_stopped()
    if on_stopped is not None:
        on_stopped(
            {
                "event": "stopped",
                "persisted_jobs": persisted,
                "counters": dict(service.counters),
            }
        )
    return 0
