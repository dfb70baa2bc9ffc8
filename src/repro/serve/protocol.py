"""Wire protocol of the planning service: line-delimited JSON.

Transport
---------
One connection carries a sequence of requests; every request is a
single JSON object on one ``\\n``-terminated line, and every request
gets exactly one JSON-object response line.  Responses carry
``"ok": true`` plus operation fields, or ``"ok": false`` plus a stable
``"error"`` code (see :mod:`repro.serve.errors`).  The protocol is
versioned (:data:`PROTOCOL_VERSION`); the server rejects requests whose
``v`` field names a version it does not speak (a missing ``v`` means
"current").

Dedup fingerprint
-----------------
:meth:`PlanRequest.fingerprint` is the content address requests are
coalesced on: a SHA-256 over the canonical JSON of the *semantic*
request -- design name, width budget, and the result-affecting
:class:`~repro.pipeline.config.RunConfig` fields.  The performance
knobs (``jobs`` / ``cache_dir`` / ``use_cache``) are excluded on
purpose: the engine guarantees bit-identical plans regardless of worker
count or cache state (differentially tested since PR 1), so two
requests differing only in those knobs are the *same computation* and
must coalesce.  Scheduling attributes (priority, timeout) are likewise
excluded -- they shape when a job runs, not what it computes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.pipeline.config import RunConfig
from repro.serve.errors import ProtocolError

PROTOCOL_VERSION = 1

#: RunConfig fields that do not change the planned result; excluded
#: from the dedup fingerprint (see module docstring).  ``verify`` is
#: non-semantic too: the service always verifies before replying, so
#: a verify=True request coalesces with its verify=False twin.
_PERF_KNOBS = ("jobs", "cache_dir", "use_cache", "verify")


@dataclass(frozen=True)
class PlanRequest:
    """One plan submission: what to plan, and how to schedule the job."""

    design: str
    width: int
    config: RunConfig = field(default_factory=RunConfig)
    #: Higher runs earlier; ties are FIFO.
    priority: int = 0
    #: Per-job deadline in seconds (``None``: the service default).
    timeout_s: float | None = None
    #: Fault-injection hook for chaos/fault tests; honored only by the
    #: worker entry, never set by normal clients.  Part of the
    #: fingerprint so a faulty request can never coalesce with a clean
    #: twin.
    fault: Mapping[str, Any] | None = None

    def __post_init__(self) -> None:
        if not self.design:
            raise ProtocolError("request needs a design name")
        if int(self.width) < 1:
            raise ProtocolError(f"width must be >= 1, got {self.width}")

    # ------------------------------------------------------------------

    def semantic_key(self) -> dict[str, Any]:
        """The result-defining content of this request (JSON-ready)."""
        config = self.config.to_dict()
        for knob in _PERF_KNOBS:
            config.pop(knob, None)
        key: dict[str, Any] = {
            "design": self.design,
            "width": int(self.width),
            "config": config,
        }
        if self.fault:
            key["fault"] = dict(self.fault)
        return key

    def fingerprint(self) -> str:
        """Content address for dedup/coalescing (SHA-256 hex digest)."""
        canonical = json.dumps(
            self.semantic_key(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "design": self.design,
            "width": int(self.width),
            "config": self.config.to_dict(),
            "priority": int(self.priority),
        }
        if self.timeout_s is not None:
            data["timeout_s"] = float(self.timeout_s)
        if self.fault:
            data["fault"] = dict(self.fault)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PlanRequest":
        try:
            design = str(data["design"])
            width = int(data["width"])
        except (KeyError, TypeError, ValueError) as error:
            raise ProtocolError(f"malformed plan request: {error!r}") from None
        raw_config = data.get("config") or {}
        try:
            config = RunConfig.from_dict(raw_config)
        except (TypeError, ValueError) as error:
            raise ProtocolError(f"bad config: {error}") from None
        timeout = data.get("timeout_s")
        return cls(
            design=design,
            width=width,
            config=config,
            priority=int(data.get("priority", 0)),
            timeout_s=float(timeout) if timeout is not None else None,
            fault=dict(data["fault"]) if data.get("fault") else None,
        )

    def worker_payload(self, attempt: int = 0) -> dict[str, Any]:
        """What the worker entry receives for one execution attempt."""
        payload = self.to_dict()
        payload["attempt"] = int(attempt)
        return payload


# ---------------------------------------------------------------------------
# Framing.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RawJSON:
    """A value already encoded the way frames encode values.

    ``text`` is one compact JSON value with sorted keys;
    :func:`encode_message` splices it into the frame verbatim, so a
    large value sent many times is encoded once.
    """

    text: str


def _dumps(value: Any) -> str:
    return json.dumps(value, separators=(",", ":"), sort_keys=True)


def encode_message(message: Mapping[str, Any]) -> bytes:
    """One protocol frame: compact JSON plus the line terminator.

    :class:`RawJSON` values are spliced in as their text; the frame is
    the one their decoded values would give.
    """
    members: list[str] = []
    plain: dict[str, Any] = {}
    for key in sorted(message):
        value = message[key]
        if isinstance(value, RawJSON):
            if plain:
                members.append(_dumps(plain)[1:-1])
                plain = {}
            members.append(f"{_dumps(key)}:{value.text}")
        else:
            plain[key] = value
    if plain:
        members.append(_dumps(plain)[1:-1])
    return ("{" + ",".join(members) + "}\n").encode("utf-8")


def decode_message(line: bytes | str) -> dict[str, Any]:
    """Parse one frame; raises :class:`ProtocolError` on garbage."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    text = line.strip()
    if not text:
        raise ProtocolError("empty message")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"not JSON: {error}") from None
    if not isinstance(data, dict):
        raise ProtocolError(
            f"expected a JSON object, got {type(data).__name__}"
        )
    version = data.get("v", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version!r} "
            f"(this build speaks {PROTOCOL_VERSION})"
        )
    return data


def ok_response(**fields: Any) -> dict[str, Any]:
    response: dict[str, Any] = {"ok": True, "v": PROTOCOL_VERSION}
    response.update(fields)
    return response


def error_response(code: str, message: str, /, **fields: Any) -> dict[str, Any]:
    """An error reply; ``fields``, such as a job brief, never replace its keys."""
    response: dict[str, Any] = {
        "ok": False,
        "v": PROTOCOL_VERSION,
        "error": code,
        "message": message,
    }
    response.update((k, v) for k, v in fields.items() if k not in response)
    return response


def job_brief(job: Any) -> dict[str, Any]:
    """The status view of a job every operation shares."""
    brief = {
        "job_id": job.id,
        "state": job.state.value,
        "design": job.request.design,
        "width": job.request.width,
        "priority": job.request.priority,
        "attempts": job.attempts,
        "submitted_at": job.submitted_at,
        "started_at": job.started_at,
        "finished_at": job.finished_at,
        "request_id": getattr(job, "request_id", ""),
    }
    if job.error is not None:
        brief["message"] = job.error
        brief["error_code"] = job.error_code
    return brief


__all__ = [
    "PROTOCOL_VERSION",
    "PlanRequest",
    "RawJSON",
    "decode_message",
    "encode_message",
    "error_response",
    "job_brief",
    "ok_response",
]
