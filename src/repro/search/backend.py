"""Backend protocol, registry, and the ``run_search`` front door.

A *search backend* is a strategy for the paper's architecture step: it
explores (partition, assignment) states through a shared
:class:`~repro.search.evaluator.Evaluator` and returns the best
:class:`~repro.search.state.PartitionSearchResult` it found.  Backends
self-describe their hyperparameters (name -> type), which is what lets
``repro-soc plan --search-opt key=value`` coerce CLI strings safely and
reject typos with the full list of known knobs.

:func:`run_search` is the one entry point every consumer goes through
(pipeline stages, the robust search, the hierarchy's parent search,
the fuzz harness): it resolves the search space, auto-picks exhaustive
vs. greedy exactly as the pre-refactor dispatcher did, coerces
options, and runs the backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Protocol, Sequence, runtime_checkable

from repro.core.scheduler import TimeFn
from repro.search.evaluator import Evaluator, PowerFn, ScheduleFn, VolumeFn
from repro.search.state import (
    PartitionSearchResult,
    SearchSpace,
    resolve_search_space,
)


@runtime_checkable
class SearchBackend(Protocol):
    """What a pluggable architecture-search strategy must provide."""

    #: Registry key; also the ``--strategy`` value and the ``strategy``
    #: string stamped on results.
    name: str

    #: Hyperparameter name -> type, used to coerce/validate options.
    hyperparameters: Mapping[str, type]

    def run(
        self, evaluator: Evaluator, space: SearchSpace, **options: Any
    ) -> PartitionSearchResult:
        """Search ``space``, evaluating through ``evaluator``."""
        ...


@dataclass(frozen=True)
class BackendConfig:
    """A backend choice plus raw (uncoerced) hyperparameter overrides.

    Hashable so it can ride on the frozen ``RunConfig``; options stay
    as sorted ``(key, value-string)`` pairs until the backend's
    declared types coerce them.
    """

    name: str = "auto"
    options: tuple[tuple[str, str], ...] = field(default_factory=tuple)

    def options_dict(self) -> dict[str, str]:
        return dict(self.options)

    @staticmethod
    def from_mapping(
        name: str, options: Mapping[str, Any] | None
    ) -> "BackendConfig":
        pairs = tuple(
            sorted((str(k), str(v)) for k, v in (options or {}).items())
        )
        return BackendConfig(name=name, options=pairs)


# ----------------------------------------------------------------------
# Registry.
# ----------------------------------------------------------------------

_BACKENDS: dict[str, SearchBackend] = {}


def register_backend(backend: SearchBackend) -> None:
    """Register (or replace) a backend under ``backend.name``."""
    _BACKENDS[backend.name] = backend


def backend_names() -> list[str]:
    """Registered backend names, sorted (after loading built-ins)."""
    _ensure_builtin_backends()
    return sorted(_BACKENDS)


def get_backend(name: str) -> SearchBackend:
    _ensure_builtin_backends()
    backend = _BACKENDS.get(name)
    if backend is None:
        raise ValueError(
            f"unknown strategy {name!r} (available: "
            f"auto, {', '.join(sorted(_BACKENDS))})"
        )
    return backend


def _ensure_builtin_backends() -> None:
    # Importing the subpackage registers the built-in backends; lazy so
    # ``repro.search.backend`` itself stays import-cycle free.
    from repro.search import backends  # noqa: F401


# ----------------------------------------------------------------------
# Option coercion.
# ----------------------------------------------------------------------

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def coerce_options(
    backend: SearchBackend, options: Mapping[str, Any] | None
) -> dict[str, Any]:
    """Coerce raw option values to the backend's declared types.

    Unknown keys raise with the backend's full knob list, so a CLI typo
    fails loudly instead of silently searching with defaults.
    """
    coerced: dict[str, Any] = {}
    for key, raw in (options or {}).items():
        typ = backend.hyperparameters.get(key)
        if typ is None:
            known = ", ".join(sorted(backend.hyperparameters)) or "none"
            raise ValueError(
                f"unknown option {key!r} for search backend "
                f"{backend.name!r} (known options: {known})"
            )
        coerced[key] = _coerce_one(key, raw, typ)
    return coerced


def _coerce_one(key: str, raw: Any, typ: type) -> Any:
    if typ is bool:
        if isinstance(raw, bool):
            return raw
        if isinstance(raw, str):
            low = raw.strip().lower()
            if low in _TRUE:
                return True
            if low in _FALSE:
                return False
        raise ValueError(f"option {key}={raw!r} is not a valid bool")
    if isinstance(raw, typ) and not isinstance(raw, bool):
        return raw
    try:
        return typ(raw)
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"option {key}={raw!r} is not a valid {typ.__name__}"
        ) from exc


# ----------------------------------------------------------------------
# The front door.
# ----------------------------------------------------------------------


def run_search(
    core_names: Sequence[str],
    total_width: int,
    time_of: TimeFn,
    *,
    strategy: str = "auto",
    max_parts: int | None = None,
    min_width: int = 1,
    options: Mapping[str, Any] | None = None,
    volume_of: VolumeFn | None = None,
    power_of: PowerFn | None = None,
    schedule: ScheduleFn | None = None,
) -> PartitionSearchResult:
    """Resolve the space, pick the backend, and search.

    ``strategy="auto"`` keeps the historical rule: exhaustive while the
    partition count stays within ``AUTO_PARTITION_LIMIT``, greedy
    beyond it.  Every other name goes straight to the registry.

    ``schedule`` replaces the list heuristic as the cost of a partition
    (see :class:`~repro.search.evaluator.Evaluator`).  A backend that
    costs explicit assignments instead gets a ``ValueError`` from
    :meth:`~repro.search.evaluator.Evaluator.makespan_of`.
    """
    space = resolve_search_space(
        len(core_names), total_width, max_parts=max_parts, min_width=min_width
    )
    if strategy == "auto":
        from repro.core.partition import AUTO_PARTITION_LIMIT, count_partitions

        size = count_partitions(
            space.total_width, space.max_parts, space.min_width
        )
        strategy = "exhaustive" if size <= AUTO_PARTITION_LIMIT else "greedy"
    backend = get_backend(strategy)
    coerced = coerce_options(backend, options)
    evaluator = Evaluator(
        core_names, time_of, volume_of=volume_of, power_of=power_of, schedule=schedule
    )
    return backend.run(evaluator, space, **coerced)
