"""Concurrent planning service: job queue, dedup, backpressure, transport.

The service layer keeps one warm planning process resident -- wrapper
LRU, lookup tables, and the on-disk analysis cache stay hot -- and
feeds it a stream of co-optimization requests:

* :mod:`repro.serve.jobs` -- the job state machine and the bounded,
  priority-ordered queue with explicit backpressure;
* :mod:`repro.serve.protocol` -- the line-JSON wire format and the
  content fingerprint identical requests coalesce on;
* :mod:`repro.serve.worker` -- warm worker processes fed jobs over a
  pipe, with timeout, cancellation, crash detection and recycling;
* :mod:`repro.serve.service` -- :class:`PlanningService`, the asyncio
  orchestrator (dedup, retry with backoff, graceful shutdown with
  queue persistence, :mod:`repro.obs` integration);
* :mod:`repro.serve.telemetry` -- :class:`ServiceTelemetry`, the
  always-on live instrument layer behind the ``metrics``/``health``
  ops (rolling latency windows, OpenMetrics exposition);
* :mod:`repro.serve.server` / :mod:`repro.serve.client` -- the TCP
  front end (``repro-soc serve``) and the blocking Python client.

Every request carries a transport-level correlation id
(``request_id``): structured log records, spans on both sides of the
process boundary, and worker-subprocess spans merged back into the
parent all share it, stitching one cross-process trace per request.

Results delivered through the service are bit-identical to calling the
:class:`~repro.pipeline.pipeline.Pipeline` directly (differentially
tested) -- the transport ships the lossless ``result_to_json`` form.
See ``docs/service.md`` for the protocol and semantics.
"""

from repro.serve.errors import (
    BackpressureError,
    JobCancelled,
    JobFailed,
    JobNotFound,
    JobTimeout,
    ProtocolError,
    ServiceError,
    ShuttingDown,
    WorkerCrashed,
    WorkerError,
)
from repro.serve.jobs import Job, JobQueue, JobState
from repro.serve.protocol import PROTOCOL_VERSION, PlanRequest
from repro.serve.server import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    ServiceServer,
    run_server,
)
from repro.serve.service import PlanningService, ServiceSettings
from repro.serve.telemetry import ServiceTelemetry, health_view
from repro.serve.client import ServiceClient, SubmitTicket, connect_with_retry

__all__ = [
    "BackpressureError",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "Job",
    "JobCancelled",
    "JobFailed",
    "JobNotFound",
    "JobQueue",
    "JobState",
    "JobTimeout",
    "PROTOCOL_VERSION",
    "PlanRequest",
    "PlanningService",
    "ProtocolError",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "ServiceSettings",
    "ServiceTelemetry",
    "ShuttingDown",
    "SubmitTicket",
    "WorkerCrashed",
    "WorkerError",
    "connect_with_retry",
    "health_view",
    "run_server",
]
