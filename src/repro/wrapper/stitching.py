"""Flexible scan-chain re-stitching (extension).

The paper treats internal scan chains as fixed, indivisible segments --
the situation for hard (layout-frozen) cores.  For *soft* cores the
integrator may re-stitch the scan flip-flops into any number of chains
before wrapper design, which removes the chain-length floor under the
test time.  This module provides that knob and quantifies its value:

* :func:`restitch` rebuilds a core with a chosen chain count (balanced
  stitching, which is optimal for the scan-in depth);
* :func:`best_stitching` sweeps chain counts and returns the fastest
  configuration at a TAM width under a compression mode.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.soc.core import Core, balanced_chain_lengths


def restitch(core: Core, num_chains: int) -> Core:
    """Return a copy of ``core`` with its scan cells re-stitched.

    Balanced chains minimize the maximum chain length, which lower-
    bounds the wrapper scan-in depth.  The cube seed is preserved, so
    the synthetic test data stays statistically identical (the cube
    model is per-cell i.i.d.).
    """
    cells = core.scan_cells
    if cells == 0:
        raise ValueError(f"{core.name} has no scan cells to re-stitch")
    if not 1 <= num_chains <= cells:
        raise ValueError(
            f"chain count must be in [1, {cells}], got {num_chains}"
        )
    return replace(
        core,
        name=f"{core.name}@{num_chains}ch",
        scan_chain_lengths=balanced_chain_lengths(cells, num_chains),
    )


@dataclass(frozen=True)
class StitchingChoice:
    """Outcome of a stitching sweep at one TAM width."""

    original_time: int
    best_time: int
    best_chains: int
    core: Core

    @property
    def speedup(self) -> float:
        return self.original_time / self.best_time if self.best_time else 1.0


def best_stitching(
    core: Core,
    tam_width: int,
    *,
    compression: str = "per-core",
    max_chains: int | None = None,
) -> StitchingChoice:
    """Sweep chain counts and pick the fastest at ``tam_width``.

    Each variant is timed under the ``compression`` mode.  Candidates
    are a geometric ladder up to ``max_chains`` (default: the scan-cell
    count capped at 1024).  Returns the original time, the best
    re-stitched time, and the winning core variant.
    """
    # Imported here: repro.explore depends on repro.wrapper, so a
    # module-level import would be circular.
    from repro.explore.dse import analysis_for

    if core.scan_cells == 0:
        raise ValueError(f"{core.name} has no scan cells to re-stitch")
    top = max_chains or min(core.scan_cells, 1024)
    top = min(top, core.scan_cells)

    def time_for(candidate: Core) -> int:
        analysis = analysis_for(candidate)
        return analysis.time_at_tam(tam_width, compression=compression)

    original_time = time_for(core)
    best_time = original_time
    best_core = core
    best_chains = core.num_scan_chains
    count = 1
    candidates = set()
    while count < top:
        candidates.add(count)
        count *= 2
    candidates.add(top)
    for num_chains in sorted(candidates):
        variant = restitch(core, num_chains)
        time = time_for(variant)
        if time < best_time:
            best_time = time
            best_core = variant
            best_chains = num_chains
    return StitchingChoice(
        original_time=original_time,
        best_time=best_time,
        best_chains=best_chains,
        core=best_core,
    )
