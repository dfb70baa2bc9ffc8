"""Structured run events: the pipeline's observability layer.

Every pipeline run produces a stream of :class:`RunEvent` records --
run start/end, per-stage start/end with wall-clock timings, analysis
cache hit/miss counts, search progress -- replacing the ad-hoc
``_time.perf_counter()`` pairs the pre-pipeline optimizers carried and
giving library consumers a programmatic signal instead of stdout.

Events flow to two places:

* any number of caller-supplied **sinks** (plain callables), which is
  what tests and embedding services use to tap a run live;
* the ``repro.pipeline`` **logger**, so standard ``logging``
  configuration observes runs with no repro-specific wiring.  Library
  code never ``print()``\\ s; the CLI renders its own stdout from
  returned values and can opt into the event log with ``--verbose``.
"""

from __future__ import annotations

import json
import logging
import time
from types import MappingProxyType
from typing import Any, Callable, Mapping, NamedTuple

#: All library-side run reporting goes through this logger (or a child).
LOGGER = logging.getLogger("repro.pipeline")

#: Event kinds emitted with INFO verbosity; everything else is DEBUG.
_INFO_KINDS = frozenset({"run-start", "run-end", "stage-start", "stage-end"})


class RunEvent(NamedTuple):
    """One structured observation from a pipeline run.

    ``kind`` is a stable string ("run-start", "stage-start",
    "stage-end", "stage-error", "cache-stats", ...); ``stage`` names
    the originating stage when there is one; ``elapsed`` is seconds
    since the run started; ``payload`` holds kind-specific,
    JSON-serializable details.

    A named tuple, so an event is immutable and costs a tuple to build:
    a plan emits a dozen or more of them.
    """

    kind: str
    stage: str | None
    elapsed: float
    payload: Mapping[str, Any] = MappingProxyType({})

    def format(self) -> str:
        """Single-line human rendering (used by the logger mirror)."""
        where = f" [{self.stage}]" if self.stage else ""
        details = " ".join(
            f"{k}={_format_value(v)}" for k, v in self.payload.items()
        )
        text = f"+{self.elapsed:.3f}s {self.kind}{where}"
        return f"{text} {details}" if details else text


def _format_value(value: Any) -> str:
    """Render one payload value for the single-line event format.

    Scalars print bare; containers (lists, dicts, tuples) are
    compact-JSON-encoded so a payload like ``widths=[9, 7]`` stays
    greppable instead of degrading to ``widths=[9, 7]``-with-spaces or
    a ``repr`` full of quotes.  Values JSON cannot express fall back to
    ``repr``.
    """
    if value is None or isinstance(value, (str, int, float, bool)):
        return str(value)
    try:
        return json.dumps(value, separators=(",", ":"), default=repr)
    except (TypeError, ValueError):
        return repr(value)


#: Builds a :class:`RunEvent` from its four fields in one call, without
#: the named tuple's generated ``__new__`` frame.
_new_event = tuple.__new__


#: A sink receives every event of the run it is attached to.
EventSink = Callable[[RunEvent], None]


class EventRecorder:
    """Collects and fans out the events of one pipeline run."""

    def __init__(self, *sinks: EventSink) -> None:
        self._sinks = tuple(sinks)
        self._start = time.perf_counter()
        self.events: list[RunEvent] = []
        #: (stage, payload) of every ``stage-end`` that names its stage.
        self._stage_ends: list[tuple[str, Mapping[str, Any]]] = []

    # ------------------------------------------------------------------

    def emit(
        self, kind: str, stage: str | None = None, **payload: Any
    ) -> RunEvent:
        """Record an event, mirror it to logging, and fan out to sinks."""
        event = _new_event(
            RunEvent, (kind, stage, time.perf_counter() - self._start, payload)
        )
        self.events.append(event)
        if kind == "stage-end" and stage is not None:
            self._stage_ends.append((stage, payload))
        level = logging.INFO if kind in _INFO_KINDS else logging.DEBUG
        if LOGGER.isEnabledFor(level):
            LOGGER.log(level, "%s", event.format())
        for sink in self._sinks:
            sink(event)
        return event

    def stage(self, name: str, **payload: Any) -> "_StageBracket":
        """Bracket a stage with start/end (or error) events and timing."""
        return _StageBracket(self, name, payload)

    # ------------------------------------------------------------------

    def stage_timings(self) -> tuple[tuple[str, float], ...]:
        """(stage name, seconds) for every completed stage, in order.

        Only events that actually name their stage contribute: a
        hand-emitted ``stage-end`` with ``stage=None`` used to leak an
        unusable ``("", seconds)`` row into ``PlanResult.stage_timings``
        and every report built on it, so anonymous stage ends are
        skipped instead.
        """
        return tuple(
            (stage, float(payload["seconds"])) for stage, payload in self._stage_ends
        )

    @property
    def total_seconds(self) -> float:
        """Wall-clock seconds since this recorder was created."""
        return time.perf_counter() - self._start


class _StageBracket:
    """The context manager :meth:`EventRecorder.stage` returns.

    A plain class rather than a ``@contextmanager`` generator: every
    stage of every plan enters one, and the generator machinery cost
    more than the two events it emits.
    """

    __slots__ = ("_recorder", "_name", "_payload", "_began")

    def __init__(
        self, recorder: EventRecorder, name: str, payload: dict[str, Any]
    ) -> None:
        self._recorder = recorder
        self._name = name
        self._payload = payload

    def __enter__(self) -> None:
        self._recorder.emit("stage-start", self._name, **self._payload)
        self._began = time.perf_counter()

    def __exit__(self, exc_type: Any, exc: BaseException | None, tb: Any) -> None:
        seconds = time.perf_counter() - self._began
        if exc is None:
            self._recorder.emit("stage-end", self._name, seconds=seconds)
        else:
            self._recorder.emit(
                "stage-error", self._name, seconds=seconds, error=repr(exc)
            )
