"""Outside-in per-layer tracing for the benchmark.

The benchmark measures the program from outside: it never edits
``src/``.  To break an op's wall time down by layer it wraps each
layer's public functions in place.  :meth:`Hooks.install` resolves
every ``module:qualname`` target in :data:`LAYERS`, builds one wrapper
per function object, and swaps the wrapper in wherever a loaded
``repro`` module or a class defined there references that object.
Modules that import a target later (``from x import f`` inside a
function body) read the patched module attribute, so they get the
wrapper too.  :meth:`Hooks.uninstall` puts every original back.

A wrapper records a span only while the :class:`Tracer` is inside an
op, so setup and the untimed correctness checks stay out of the
numbers.  A span's self time is its duration minus the time its child
spans cover.  Summing self time per layer therefore adds up to the op
wall time, and the op span's own self time is the part no hook covers
(``pipeline.other_s``).

Spans are kept in memory and written once, at exit, as Chrome
trace-event JSON (open it in Perfetto or ``chrome://tracing``).  A span
shorter than :data:`FOLD_S` is not written: it is folded, with its
subtree, into its parent's ``folded`` argument as a per-function call
count and busy time.  Lazy table fills make 10^5 calls of a few
microseconds per op; folding keeps the file to a few MB while the
per-layer sums stay exact.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Any, Callable

#: Layer name -> the public functions wrapped for it, as
#: ``module:qualname``.  Module names are the defining modules; the
#: installer finds every re-export by object identity.
LAYERS: dict[str, tuple[str, ...]] = {
    "soc": (
        "repro.soc.industrial:load_design",
        "repro.soc.synthetic:synthetic_soc",
    ),
    "explore": tuple(
        f"repro.explore.dse:CoreAnalysis.{method}"
        for method in (
            "uncompressed_point",
            "compressed_point",
            "sweep_code_width",
            "sweep_wrapper_chains",
            "best_for_code_width",
            "best_compressed_for_tam",
            "time_at_tam",
            "volume_at_tam",
            "precompute",
        )
    )
    + ("repro.explore.dse:analyze_soc_cores",),
    "compression": (
        "repro.compression.hotpath:exact_codeword_totals",
        "repro.compression.estimator:estimate_codewords_batch",
    ),
    "wrapper": (
        "repro.wrapper.design:design_wrappers_batch",
        "repro.wrapper.design:design_wrapper",
    ),
    "pipeline.tables": (
        "repro.pipeline.tables:LookupTables.time_of",
        "repro.pipeline.tables:LookupTables.config_of",
    ),
    "search": ("repro.search.backend:run_search",),
    "core.schedule": (
        "repro.core.scheduler:schedule_makespans_batch",
        "repro.core.scheduler:schedule_cores",
        "repro.core.scheduler:schedule_cores_indexed",
        "repro.core.scheduler:build_architecture",
    ),
    "core.timeline": (
        "repro.core.timeline:schedule_constrained",
        "repro.core.timeline:constrained_architecture",
    ),
    "pack": (
        "repro.pack.rects:core_rectangles",
        "repro.pack.packer:pack_rectangles",
        "repro.pack.packer:packed_architecture",
    ),
    "verify": (
        "repro.verify.invariants:verify_architecture",
        "repro.verify.invariants:verify_packed",
        "repro.verify.invariants:verify_constrained",
    ),
    "reporting": ("repro.reporting.export:result_to_json",),
}


def _count_evaluations(tracer: "Tracer", result: Any) -> None:
    tracer.counters["search.evaluations"] = tracer.counters.get(
        "search.evaluations", 0
    ) + int(result.partitions_evaluated)


#: Targets whose return value feeds a counter, read at the boundary
#: where the work happens.
COUNTERS: dict[str, Callable[["Tracer", Any], None]] = {
    "repro.search.backend:run_search": _count_evaluations,
}


#: Spans shorter than this are folded into their parent (see module doc).
FOLD_S = 200e-6


class _Frame:
    __slots__ = ("id", "name", "layer", "start", "child", "mark", "folded")

    def __init__(
        self, span_id: int, name: str, layer: str, start: float, mark: int
    ) -> None:
        self.id = span_id
        self.name = name
        self.layer = layer
        self.start = start
        self.child = 0.0  # time covered by child spans
        self.mark = mark  # len(events) when the span opened
        self.folded: dict[str, list] | None = None  # name -> [calls, busy_s]


class Tracer:
    """Span stack with per-layer self-time and call-count sums.

    Events are ``(id, parent, op, name, layer, start, end, folded)``
    tuples, appended when a span ends; an op's root span has layer
    ``"op"`` and parent ``None``.
    """

    def __init__(self) -> None:
        self.recording = False
        self.origin = time.perf_counter()
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.other_s = 0.0
        self.events: list[tuple] = []
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._op: str | None = None

    def begin_op(self, op_id: str) -> None:
        """Open the root span of one op; hooks record until :meth:`end_op`."""
        if self._stack:
            raise RuntimeError("begin_op inside an open op")
        self._op = op_id
        self.recording = True
        self._stack.append(self._frame(f"op {op_id}", "op"))

    def end_op(self) -> float:
        """Close the op span; returns its wall time in seconds."""
        frame = self._stack.pop()
        if self._stack:
            raise RuntimeError("end_op with hooked spans still open")
        self.recording = False
        end = time.perf_counter()
        wall = end - frame.start
        self.other_s += wall - frame.child
        self.events.append(
            (frame.id, None, self._op, frame.name, "op", frame.start, end, frame.folded)
        )
        self._op = None
        return wall

    def _frame(self, name: str, layer: str) -> _Frame:
        self._next_id += 1
        return _Frame(
            self._next_id, name, layer, time.perf_counter(), len(self.events)
        )

    def enter(self, name: str, layer: str) -> _Frame:
        frame = self._frame(name, layer)
        self._stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1]
        duration = end - frame.start
        parent.child += duration
        layer = frame.layer
        self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - frame.child
        self.calls[layer] = self.calls.get(layer, 0) + 1
        if duration < FOLD_S:
            del self.events[frame.mark:]
            if parent.folded is None:
                parent.folded = {}
            entry = parent.folded.setdefault(frame.name, [0, 0.0])
            entry[0] += 1
            entry[1] += duration
            return
        self.events.append(
            (frame.id, parent.id, self._op, frame.name, layer, frame.start, end,
             frame.folded)
        )

    def chrome_trace(self) -> dict[str, Any]:
        """The recorded spans as a Chrome trace-event document."""
        events = []
        for span_id, parent, op, name, layer, start, end, folded in self.events:
            args: dict[str, Any] = {"op": op, "id": span_id, "parent": parent}
            if folded:
                args["folded"] = {
                    child: {"calls": calls, "busy_us": round(busy * 1e6, 1)}
                    for child, (calls, busy) in folded.items()
                }
            events.append(
                {
                    "name": name,
                    "cat": layer,
                    "ph": "X",
                    "ts": round((start - self.origin) * 1e6, 1),
                    "dur": round((end - start) * 1e6, 1),
                    "pid": 1,
                    "tid": 1,
                    "args": args,
                }
            )
        events.sort(key=lambda event: (event["ts"], -event["dur"]))
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle, separators=(",", ":"))


def _resolve(target: str) -> tuple[str, Any]:
    """``module:Qual.name`` -> (attribute name, function object)."""
    module_name, _, qualname = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        function = owner.__dict__[attribute]
    else:
        function = getattr(owner, attribute)
    if not callable(function):
        raise TypeError(f"{target} is not callable")
    return attribute, function


def _wrap(
    function: Callable, name: str, layer: str, tracer: Tracer,
    counter: Callable[[Tracer, Any], None] | None,
) -> Callable:
    @functools.wraps(function)
    def hooked(*args: Any, **kwargs: Any) -> Any:
        if not tracer.recording:
            return function(*args, **kwargs)
        frame = tracer.enter(name, layer)
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if counter is not None:
            counter(tracer, result)
        return result

    return hooked


class Hooks:
    """Installs and removes the layer wrappers around one :class:`Tracer`."""

    def __init__(
        self, tracer: Tracer, layers: dict[str, tuple[str, ...]] = LAYERS
    ) -> None:
        self.tracer = tracer
        self.layers = layers
        #: Targets that did not resolve on this tree.
        self.missing: list[str] = []
        #: Layers none of whose targets resolved (reported as null).
        self.null_layers: list[str] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        wrappers: dict[int, tuple[Any, Callable]] = {}
        for layer, targets in self.layers.items():
            resolved = 0
            for target in targets:
                try:
                    attribute, function = _resolve(target)
                except (ImportError, AttributeError, KeyError, TypeError):
                    self.missing.append(target)
                    continue
                resolved += 1
                if id(function) not in wrappers:
                    wrappers[id(function)] = (
                        function,
                        _wrap(
                            function, attribute, layer, self.tracer,
                            COUNTERS.get(target),
                        ),
                    )
            if not resolved:
                self.null_layers.append(layer)
        for owner in _owners():
            for attribute, value in list(vars(owner).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(owner, attribute, entry[1])
                    self._patched.append((owner, attribute, value))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    def __enter__(self) -> "Hooks":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()


def _owners() -> list[Any]:
    """Every loaded ``repro`` module and each class defined in one."""
    modules = [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
    classes: dict[int, type] = {}
    for module in modules:
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__.startswith("repro"):
                classes[id(value)] = value
    return modules + list(classes.values())


def layer_metrics(tracer: Tracer, hooks: Hooks) -> dict[str, float | None]:
    """``<layer>.self_s`` / ``<layer>.calls`` plus the search counters."""
    metrics: dict[str, float | None] = {}
    for layer in hooks.layers:
        if layer in hooks.null_layers:
            metrics[f"{layer}.self_s"] = None
            metrics[f"{layer}.calls"] = None
        else:
            metrics[f"{layer}.self_s"] = tracer.self_s.get(layer, 0.0)
            metrics[f"{layer}.calls"] = tracer.calls.get(layer, 0)
    evaluations = tracer.counters.get("search.evaluations", 0)
    search_s = tracer.self_s.get("search", 0.0)
    metrics["search.evaluations"] = evaluations
    metrics["search.evals_per_s"] = evaluations / search_s if search_s else 0.0
    metrics["pipeline.other_s"] = tracer.other_s
    return metrics
