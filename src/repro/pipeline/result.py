"""The unified outcome of a pipeline run.

:class:`PlanResult` is the one result type of every flow: one frozen
dataclass carries the planned architecture, the run provenance
(compression mode, partition-search statistics, wall-clock), the
constraint bookkeeping (peak power, TAM idle time -- zero/None for
unconstrained runs), and the per-stage timings from the event stream.
``repro.reporting.export`` gives it a lossless JSON round trip
(:func:`~repro.reporting.export.result_to_json` /
:func:`~repro.reporting.export.result_from_json`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.architecture import TestArchitecture

if TYPE_CHECKING:
    from repro.obs.report import RunReport


@dataclass(frozen=True)
class PlanResult:
    """Outcome of one co-optimization run (any pipeline flavor)."""

    soc_name: str
    width_budget: int
    compression: str
    architecture: TestArchitecture
    cpu_seconds: float
    partitions_evaluated: int
    strategy: str
    peak_power: float = 0.0
    power_budget: float | None = None
    tam_idle_cycles: int = 0
    stage_timings: tuple[tuple[str, float], ...] = ()
    #: Observability artifact, attached when a run executes under an
    #: enabled :mod:`repro.obs` context; ``None`` otherwise.  Excluded
    #: from equality so plans stay comparable across observed and
    #: unobserved runs (bit-identical results is the engine invariant).
    report: "RunReport | None" = field(default=None, compare=False, repr=False)

    @property
    def test_time(self) -> int:
        return self.architecture.test_time

    @property
    def test_data_volume(self) -> int:
        return self.architecture.test_data_volume

    @property
    def tam_widths(self) -> tuple[int, ...]:
        return tuple(t.width for t in self.architecture.tams)
