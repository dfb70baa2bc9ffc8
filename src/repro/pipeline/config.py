"""The shared run configuration threading through every layer.

:class:`RunConfig` holds every co-optimization knob (worker count,
cache location, estimator samples, evaluation grid, compression mode,
power budget, ...) in one frozen value object.  :func:`repro.plan`
routes it to a pipeline flavor, the
:class:`~repro.pipeline.pipeline.Pipeline` threads it through its
stages, the CLI builds it once per invocation, and the experiment
drivers and the planning service forward it verbatim.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Literal, Mapping

from repro.compression.estimator import DEFAULT_SAMPLES
from repro.explore.cache import AnalysisDiskCache, resolve_cache
from repro.explore.dse import DEFAULT_GRID, Mode, analyze_soc_cores
from repro.parallel import resolve_jobs

if TYPE_CHECKING:
    from repro.explore.dse import CoreAnalysis
    from repro.search.backend import BackendConfig
    from repro.soc.core import Core

#: Accepted compression placements/modes: no TDC, the paper's per-core
#: decompressors, per-core with a plain-scan bypass, per-core technique
#: selection (both by :mod:`repro.explore.selection`'s one rule), and
#: the Figure 4(b) flow of one decompressor per TAM.
Compression = Literal["none", "per-core", "auto", "select", "per-tam"]

COMPRESSION_MODES: tuple[str, ...] = (
    "none",
    "per-core",
    "auto",
    "select",
    "per-tam",
)

#: Sentinel: "no cache argument given, resolve from the config".
_UNSET: Any = object()


@dataclass(frozen=True)
class RunConfig:
    """Every knob of one co-optimization run, in one place.

    Groups (see docs/api.md, "Pipeline architecture"):

    * **what to plan** -- ``compression`` (mode/placement: ``auto``
      is a per-core decompressor with a plain-scan bypass, taken where
      plain scan is faster, or as fast with no more volume), the
      partition-search controls ``max_tams`` / ``min_tam_width`` /
      ``strategy``, the per-TAM flow's ``min_code_width``, and the
      explicit stage selection ``architecture`` / ``schedule``
      (registry names such as ``"packing"``; ``"auto"`` keeps the
      built-in routing) with ``pack_opts`` carrying the rectangle
      packer's knobs;
    * **analysis fidelity** -- ``mode`` / ``samples`` / ``grid``,
      passed to the per-core design-space exploration;
    * **constraints** -- ``power_budget`` / ``power_of`` /
      ``precedence`` (the constrained scheduler engages when any is
      set);
    * **performance** -- ``jobs`` worker processes and the persistent
      analysis cache knobs ``cache_dir`` / ``use_cache`` (environment
      overrides ``REPRO_JOBS`` / ``REPRO_CACHE_DIR`` /
      ``REPRO_NO_CACHE`` are applied at resolve time, so a default
      config still honors them);
    * **verification** -- ``verify`` appends the independent invariant
      checker (:mod:`repro.verify`) as a final pipeline stage; a plan
      that fails it raises
      :class:`~repro.verify.invariants.PlanVerificationError` instead
      of being returned.

    The object is frozen: derive variants with :meth:`replace`.
    """

    compression: Compression = "per-core"
    mode: Mode = "auto"
    samples: int = DEFAULT_SAMPLES
    grid: int = DEFAULT_GRID
    max_tams: int | None = None
    min_tam_width: int = 1
    min_code_width: int = 3
    strategy: str = "auto"
    search_opts: tuple[tuple[str, str], ...] = ()
    architecture: str = "auto"
    schedule: str = "auto"
    pack_opts: tuple[tuple[str, str], ...] = ()
    power_budget: float | None = None
    power_of: Mapping[str, float] | None = None
    precedence: tuple[tuple[str, str], ...] = ()
    jobs: int | None = None
    cache_dir: str | None = None
    use_cache: bool | None = None
    verify: bool = False

    def __post_init__(self) -> None:
        if self.compression not in COMPRESSION_MODES:
            raise ValueError(f"unknown compression mode {self.compression!r}")
        if self.min_tam_width < 1:
            raise ValueError(
                f"min_tam_width must be >= 1, got {self.min_tam_width}"
            )
        # Normalize precedence pairs so equality/JSON behave predictably.
        object.__setattr__(
            self,
            "precedence",
            tuple((str(a), str(b)) for a, b in self.precedence),
        )
        # Backend hyperparameters travel as sorted (key, value-string)
        # pairs: hashable on the frozen config, JSON-clean, and coerced
        # to real types only by the chosen backend's declared knobs.
        object.__setattr__(
            self,
            "search_opts",
            tuple(
                sorted((str(k), str(v)) for k, v in dict(self.search_opts).items())
            ),
        )
        # Packer options travel the same way (hashable, JSON-clean).
        object.__setattr__(
            self,
            "pack_opts",
            tuple(
                sorted((str(k), str(v)) for k, v in dict(self.pack_opts).items())
            ),
        )

    # ------------------------------------------------------------------

    def replace(self, **changes: Any) -> "RunConfig":
        """A copy with the given fields changed."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        """Plain JSON-ready form; inverse of :meth:`from_dict`.

        ``from_dict(to_dict(c)) == c`` for every config (the planning
        service ships configs across processes and sockets this way).
        """
        data = {name: getattr(self, name) for name in _FIELD_NAMES}
        data["precedence"] = [list(pair) for pair in self.precedence]
        data["search_opts"] = [list(pair) for pair in self.search_opts]
        data["pack_opts"] = [list(pair) for pair in self.pack_opts]
        if self.power_of is not None:
            data["power_of"] = dict(self.power_of)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunConfig":
        """Rebuild a config from :meth:`to_dict` data.

        Unknown keys raise: a request asking for a knob this build does
        not understand must fail loudly, not plan something else.
        """
        unknown = set(data).difference(_FIELD_NAMES)
        if unknown:
            raise ValueError(
                f"unknown RunConfig fields: {', '.join(sorted(unknown))}"
            )
        kwargs = dict(data)
        if "precedence" in kwargs and kwargs["precedence"] is not None:
            kwargs["precedence"] = tuple(
                (str(a), str(b)) for a, b in kwargs["precedence"]
            )
        return cls(**kwargs)

    def search_options(self) -> dict[str, str]:
        """The backend hyperparameter overrides as a plain dict."""
        return dict(self.search_opts)

    def pack_options(self) -> dict[str, str]:
        """The rectangle-packer overrides as a plain dict."""
        return dict(self.pack_opts)

    def backend_config(self) -> "BackendConfig":
        """The architecture-search backend choice this config implies."""
        from repro.search.backend import BackendConfig

        return BackendConfig(name=self.strategy, options=self.search_opts)

    @property
    def is_constrained(self) -> bool:
        """Whether the power/precedence scheduler must engage."""
        return (
            self.power_budget is not None
            or self.power_of is not None
            or bool(self.precedence)
        )

    # ------------------------------------------------------------------
    # Resolution of the performance knobs (env-aware).
    # ------------------------------------------------------------------

    def resolve_cache(self) -> AnalysisDiskCache | None:
        """The persistent analysis cache this run uses, or ``None``."""
        return resolve_cache(self.cache_dir, self.use_cache)

    def resolve_jobs(self) -> int:
        """Effective worker-process count (env default applied)."""
        return resolve_jobs(self.jobs)

    def analyses(
        self,
        cores: Iterable["Core"],
        *,
        max_tam_width: int | None = None,
        mode: Mode | None = None,
        samples: int | None = None,
        grid: int | None = None,
        cache: AnalysisDiskCache | None = _UNSET,
    ) -> dict[str, "CoreAnalysis"]:
        """Per-core analysis tables under this config's knobs.

        This is the single funnel every consumer (pipeline stages,
        figure drivers, ad-hoc scripts) goes through, so the jobs/cache
        plumbing cannot drift between call sites.  The keyword overrides
        exist for drivers that need a non-default grid (Figure 2 plots a
        denser sweep) without forking a whole config.
        """
        if cache is _UNSET:
            cache = self.resolve_cache()
        return analyze_soc_cores(
            cores,
            mode=mode if mode is not None else self.mode,
            samples=samples if samples is not None else self.samples,
            grid=grid if grid is not None else self.grid,
            max_tam_width=max_tam_width,
            jobs=self.jobs,
            cache=cache,
        )


#: :class:`RunConfig`'s field names, in declaration order.
_FIELD_NAMES = tuple(field.name for field in dataclasses.fields(RunConfig))
