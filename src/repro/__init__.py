"""repro -- test-architecture optimization and test scheduling for SOCs
with core-level expansion of compressed test patterns.

A from-scratch reproduction of Larsson, Larsson, Chakrabarty, Eles and
Peng (DATE 2008).  The library plans modular SOC tests: it partitions
the top-level TAM width into buses, designs a wrapper and (optionally) a
selective-encoding decompressor for every core, and schedules the core
tests to minimize the SOC test time.

Quickstart::

    import repro

    soc = repro.load_design("d695")
    plan = repro.plan(soc, 32, repro.RunConfig(compression="per-core"))
    print(plan.test_time, plan.tam_widths)
    print(plan.architecture.render_gantt())

:func:`plan` is the one entry point: every flow -- no TDC, per-core or
per-TAM decompressors, power and precedence constraints, packing --
is a :class:`RunConfig` field.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.
"""

from repro.soc.core import Core
from repro.soc.soc import Soc
from repro.soc.benchmarks import load_benchmark, benchmark_names
from repro.soc.industrial import (
    INDUSTRIAL_CORE_NAMES,
    industrial_core,
    industrial_system,
    load_design,
)
from repro.soc.itc02 import parse_soc, parse_soc_file, format_soc, write_soc_file
from repro.wrapper.design import WrapperDesign, design_wrapper
from repro.wrapper.timing import scan_test_time, uncompressed_test_time
from repro.compression.cubes import TestCubeSet, generate_cubes
from repro.compression.selective import (
    Codeword,
    CompressedStream,
    code_parameters,
    encode_slices,
    slice_costs,
)
from repro.compression.decompressor import Decompressor, expand_stream
from repro.explore.cache import AnalysisDiskCache, resolve_cache
from repro.explore.dse import CoreAnalysis, analysis_for, analyze_soc_cores
from repro.parallel import parallel_map, resolve_jobs
from repro.core.architecture import TestArchitecture, DecompressorPlacement
from repro.core.soclevel import optimize_soc_level_decompressor
from repro.pipeline import (
    Pipeline,
    PlanResult,
    RunConfig,
    RunEvent,
    plan,
)
from repro.core.hardware import decompressor_cost
from repro.core.optimal import optimal_schedule
from repro.core.abort_on_fail import expected_session_time, reorder_within_tams
from repro.ate.tester import Ate
from repro.power.model import core_test_power, power_table
from repro.sim.simulator import simulate_architecture
from repro.compression.misr import Misr, signature_of
from repro.explore.selection import select_technique
from repro.soc.hierarchy import ChildSocCore, optimize_hierarchical
from repro.wrapper.stitching import best_stitching, restitch
from repro.reporting.export import (
    architecture_from_json,
    architecture_to_json,
    result_to_json,
)
from repro.quality.coverage import CoverageModel, soc_quality
from repro.quality.truncation import truncate_for_depth
from repro.core.bus import optimize_bus
from repro.compression.cubeio import (
    load_cubes_npz,
    read_patterns,
    save_cubes_npz,
    write_patterns,
)

__version__ = "1.0.0"

__all__ = [
    "Core",
    "Soc",
    "load_benchmark",
    "benchmark_names",
    "load_design",
    "industrial_core",
    "industrial_system",
    "INDUSTRIAL_CORE_NAMES",
    "parse_soc",
    "parse_soc_file",
    "format_soc",
    "write_soc_file",
    "WrapperDesign",
    "design_wrapper",
    "scan_test_time",
    "uncompressed_test_time",
    "TestCubeSet",
    "generate_cubes",
    "Codeword",
    "CompressedStream",
    "code_parameters",
    "encode_slices",
    "slice_costs",
    "Decompressor",
    "expand_stream",
    "CoreAnalysis",
    "analysis_for",
    "TestArchitecture",
    "DecompressorPlacement",
    "PlanResult",
    "RunConfig",
    "RunEvent",
    "Pipeline",
    "plan",
    "optimize_soc_level_decompressor",
    "decompressor_cost",
    "optimal_schedule",
    "expected_session_time",
    "reorder_within_tams",
    "Ate",
    "core_test_power",
    "power_table",
    "simulate_architecture",
    "Misr",
    "signature_of",
    "select_technique",
    "ChildSocCore",
    "optimize_hierarchical",
    "best_stitching",
    "restitch",
    "architecture_from_json",
    "architecture_to_json",
    "result_to_json",
    "CoverageModel",
    "soc_quality",
    "truncate_for_depth",
    "optimize_bus",
    "load_cubes_npz",
    "save_cubes_npz",
    "read_patterns",
    "write_patterns",
    "__version__",
]
