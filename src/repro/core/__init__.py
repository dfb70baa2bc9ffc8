"""SOC-level co-optimization: TAM design + scheduling + compression.

This package is the paper's primary contribution: given an SOC and a
top-level TAM width (or ATE channel budget), jointly choose

* the partition of the top-level width into fixed-width TAMs,
* the assignment of cores to TAMs (the test schedule),
* per core, the wrapper-chain count and the decompressor I/O widths,

so that the SOC test time is minimized.

The four-step flow itself runs through :func:`repro.pipeline.plan`
(with or without TDC, per-core or per-TAM decompressors, under power
and precedence constraints); this package holds the architecture
model and the partitioning and scheduling steps it calls, plus
:func:`repro.core.soclevel.optimize_soc_level_decompressor` -- the
SOC-level ("virtual TAM") decompressor architecture used as the
stand-in for the paper's comparator [18].
"""

from repro.core.architecture import (
    CoreConfig,
    ScheduledCore,
    Tam,
    TestArchitecture,
    DecompressorPlacement,
)
from repro.core.scheduler import schedule_cores
from repro.core.partition import count_partitions, partitions_list
from repro.pipeline.result import PlanResult
from repro.core.soclevel import optimize_soc_level_decompressor
from repro.core.hardware import decompressor_cost, DecompressorCost
from repro.core.timeline import (
    ConstrainedSchedule,
    PrecedenceError,
    Segment,
    schedule_constrained,
    schedule_preemptive,
)
from repro.core.optimal import OptimalOutcome, optimal_schedule
from repro.core.abort_on_fail import (
    expected_improvement,
    expected_session_time,
    reorder_within_tams,
)
from repro.core.multifrequency import (
    FrequencyTam,
    MultiFrequencyPlan,
    optimize_multifrequency,
)
from repro.core.robust import (
    RobustPlan,
    RobustPlanResult,
    UncertaintyReport,
    evaluate_under_uncertainty,
    robust_plan,
    robust_search,
)
from repro.core.bus import BusPlan, optimize_bus

__all__ = [
    "CoreConfig",
    "ScheduledCore",
    "Tam",
    "TestArchitecture",
    "DecompressorPlacement",
    "schedule_cores",
    "partitions_list",
    "count_partitions",
    "PlanResult",
    "optimize_soc_level_decompressor",
    "decompressor_cost",
    "DecompressorCost",
    "ConstrainedSchedule",
    "PrecedenceError",
    "schedule_constrained",
    "OptimalOutcome",
    "optimal_schedule",
    "expected_session_time",
    "expected_improvement",
    "reorder_within_tams",
    "Segment",
    "schedule_preemptive",
    "FrequencyTam",
    "MultiFrequencyPlan",
    "optimize_multifrequency",
    "RobustPlan",
    "RobustPlanResult",
    "UncertaintyReport",
    "evaluate_under_uncertainty",
    "robust_plan",
    "robust_search",
    "BusPlan",
    "optimize_bus",
]
