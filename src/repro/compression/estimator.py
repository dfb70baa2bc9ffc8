"""Sampled-slice estimator of the selective-encoding codeword count.

Industrial cores carry gigabits of test data; materializing their cubes
to run the exact encoder over every (w, m) candidate would be hopeless.
This estimator reproduces the exact cost model of
:func:`repro.compression.selective.slice_costs` on a *sample* of slices
whose statistics follow the core's cube model:

* the wrapper design fixes, per shift cycle ``j``, how many of the ``m``
  slice positions carry a real stimulus bit (``active_j``) -- the rest
  are idle pad bits (always free);
* each active position is a care bit with probability
  ``core.care_bit_density`` and, if care, is 1 with probability
  ``core.one_fraction`` (the cube generator's model);
* per slice the encoder pays one END codeword, one codeword per
  minority-symbol care bit, except that groups of ``k`` positions
  holding >= 3 such bits are copied for 2 codewords.

Sampling is stratified over the shift cycles (``samples`` evenly spaced
slice indices) and deterministic in ``(core.seed, m, samples)``, so every
run of an experiment sees the same estimate.  Accuracy against the exact
encoder is unit-tested on downscaled cores (a few percent at the default
sample count).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.compression.selective import code_parameters
from repro.soc.core import Core
from repro.wrapper.design import WrapperDesign

DEFAULT_SAMPLES = 768

#: Bump whenever the sampling scheme or cost model changes: the value is
#: folded into the persistent analysis-cache fingerprint
#: (:mod:`repro.explore.cache`), so stale on-disk estimates are never
#: served after an estimator change.
ESTIMATOR_VERSION = "selective-sampled-1"


@dataclass(frozen=True)
class SliceStatistics:
    """Summary of a sampled estimate."""

    m: int
    code_width: int
    slices_per_pattern: int
    total_slices: int
    mean_cost: float
    total_codewords: int

    @property
    def compressed_bits(self) -> int:
        return self.total_codewords * self.code_width


def _mix_seed(seed: int, m: int, samples: int) -> int:
    """Stable seed mixing so each (core, m) pair gets its own stream."""
    value = (seed & 0xFFFFFFFF) * 0x9E3779B1
    value ^= (m * 0x85EBCA77) & 0xFFFFFFFFFFFF
    value ^= samples * 0xC2B2AE3D
    return value & 0x7FFFFFFFFFFFFFFF


def _sampled_target_groups(
    core: Core, design: WrapperDesign, samples: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Draw one design's sampled target bits and their group slots.

    Returns ``(targets, group_ids, num_groups)`` where ``targets[s]`` is
    the number of minority-symbol care bits of sample slice ``s`` and
    ``group_ids`` holds, slice by slice, the group slot of each such
    bit.  The random stream is deterministic in
    ``(core.seed, m, samples)`` and shared verbatim by the fast and
    reference accountings, so they differ only in arithmetic.
    """
    m = design.num_chains
    k, _ = code_parameters(m)
    si = design.scan_in_max
    num_groups = -(-m // k)

    active = design.active_inputs_per_slice()  # (si,)
    # Stratified slice indices over one pattern (patterns are i.i.d. in
    # the cube model, so sampling within a pattern suffices).
    picks = np.minimum(
        ((np.arange(samples) + 0.5) * si / samples).astype(np.int64), si - 1
    )
    active_sampled = active[picks]

    rng = np.random.default_rng(_mix_seed(core.seed, m, samples))
    care = rng.binomial(active_sampled, core.care_bit_density)
    ones = rng.binomial(care, core.one_fraction)
    zeros = care - ones
    targets = np.minimum(ones, zeros)

    # Scatter each slice's target bits over the slice's group structure.
    # Positions are drawn uniformly over the m slots; for the sparse
    # industrial regime (targets << m) the with-replacement approximation
    # is negligible, and the exact path covers the dense regime.
    group_ids = rng.integers(0, num_groups, size=int(targets.sum()))
    return targets, group_ids, num_groups


def estimate_slice_costs(
    core: Core,
    design: WrapperDesign,
    *,
    samples: int = DEFAULT_SAMPLES,
) -> np.ndarray:
    """Sampled per-slice codeword counts (length ``samples`` array)."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    si = design.scan_in_max
    if si == 0:
        # Unscanned core: a single degenerate "slice" per pattern is not
        # meaningful; callers guard on this, but stay safe.
        return np.ones(samples, dtype=np.int64)

    targets, group_ids, num_groups = _sampled_target_groups(
        core, design, samples
    )
    slice_ids = np.repeat(np.arange(samples), targets)
    per_group = np.bincount(
        slice_ids * num_groups + group_ids, minlength=samples * num_groups
    ).reshape(samples, num_groups)
    # min(count, 2) is the group cost: below GROUP_COPY_THRESHOLD (= 3)
    # every target bit costs one single-bit codeword, at or above it the
    # group is emitted as a 2-codeword group-copy.
    group_cost = np.minimum(per_group, 2)
    return 1 + group_cost.sum(axis=1)


def estimate_codewords(
    core: Core,
    design: WrapperDesign,
    *,
    samples: int = DEFAULT_SAMPLES,
) -> SliceStatistics:
    """Estimate the total codeword count for ``core`` under ``design``."""
    m = design.num_chains
    _, w = code_parameters(m)
    si = design.scan_in_max
    costs = estimate_slice_costs(core, design, samples=samples)
    total_slices = core.patterns * si
    mean_cost = float(costs.mean())
    return SliceStatistics(
        m=m,
        code_width=w,
        slices_per_pattern=si,
        total_slices=total_slices,
        mean_cost=mean_cost,
        total_codewords=int(round(mean_cost * total_slices)),
    )


def estimate_codewords_batch(
    core: Core,
    designs: Sequence[WrapperDesign],
    *,
    samples: int = DEFAULT_SAMPLES,
) -> list[SliceStatistics]:
    """Estimate every design of a core through single array passes.

    Bit-identical to calling :func:`estimate_codewords` per design (each
    design replays its own ``(core.seed, m, samples)`` random stream),
    but the group-cost accounting of all designs is fused: one count of
    the occupied group slots and one clamped prefix sum over them
    replace the per-design bincount/where/sum chain.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    with obs.span("kernel.estimate-batch", designs=len(designs)):
        return _estimate_codewords_batch(core, designs, samples)


def _estimate_codewords_batch(
    core: Core, designs: Sequence[WrapperDesign], samples: int
) -> list[SliceStatistics]:
    sample_ids = np.arange(samples)
    id_chunks: list[np.ndarray] = []
    starts: list[int] = []  # flat group-slot range [start, end) per design
    ends: list[int] = []
    base = 0
    for design in designs:
        starts.append(base)
        if design.scan_in_max > 0:
            targets, group_ids, num_groups = _sampled_target_groups(
                core, design, samples
            )
            slice_ids = np.repeat(sample_ids, targets)
            id_chunks.append(base + slice_ids * num_groups + group_ids)
            base += samples * num_groups
        ends.append(base)

    # Only the group slots that drew a target bit cost anything, and the
    # bits are few next to the samples x groups slots of a whole batch:
    # count the occupied slots (sorted) rather than scatter into a dense
    # array.  Same group-copy clamp as estimate_slice_costs; the prefix
    # sum turns every design's total into two boundary lookups.
    flat_ids = np.concatenate(id_chunks) if id_chunks else np.zeros(0, np.int64)
    slots, per_slot = np.unique(flat_ids, return_counts=True)
    running = np.concatenate(
        ([0], np.cumsum(np.minimum(per_slot, 2), dtype=np.int64))
    )
    group_totals = (
        running[np.searchsorted(slots, ends)]
        - running[np.searchsorted(slots, starts)]
    ).tolist()

    stats: list[SliceStatistics] = []
    for design, group_total in zip(designs, group_totals):
        m = design.num_chains
        _, w = code_parameters(m)
        si = design.scan_in_max
        if si == 0:
            mean_cost = 1.0
        else:
            mean_cost = (samples + group_total) / samples
        total_slices = core.patterns * si
        stats.append(
            SliceStatistics(
                m=m,
                code_width=w,
                slices_per_pattern=si,
                total_slices=total_slices,
                mean_cost=mean_cost,
                total_codewords=int(round(mean_cost * total_slices)),
            )
        )
    return stats
