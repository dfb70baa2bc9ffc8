"""SOC-level decompressor ("virtual TAM") architecture.

Stand-in for the paper's comparator [18] (Sehgal, Iyengar, Chakrabarty,
TVLSI 2004): a *single* decompressor at the chip boundary expands a few
ATE channels into a wide internal TAM, and a conventional (no-TDC)
test-architecture optimization runs behind it.  The paper's qualitative
point -- reproduced by our Tables 1/2 benches -- is that this uses very
few ATE channels but "extensive and costly TAMs" on chip, and at an
equal *TAM-wire* budget it loses to per-core decompression.

Model.  The internal architecture is the no-TDC optimum at
``internal_width`` wires.  The ATE image is the selective encoding of
the internal TAM's cycle-by-cycle slices (width ``internal_width``), so
the code width is ``ceil(log2(internal_width + 1)) + 2``, which must fit
the ATE channel budget.  The codeword count is estimated as

    T_internal  +  sum over cores of (group-adjusted target-bit count)

-- one END codeword minimum per internal cycle, plus the per-core care
data, with group-copy savings computed at the internal group size.
Cross-core group coupling (two cores' targets landing in the same group
of the merged slice) is ignored; it can only *reduce* the count, and is
second-order at industrial care densities.
"""

from __future__ import annotations

import dataclasses
import itertools
import time as _time

import numpy as np

from repro.core.architecture import DecompressorPlacement, TestArchitecture
from repro.compression.selective import GROUP_COPY_THRESHOLD, code_parameters
from repro.compression.estimator import DEFAULT_SAMPLES
from repro.explore.dse import DEFAULT_GRID, Mode, analysis_for
from repro.pipeline.config import RunConfig
from repro.pipeline.pipeline import plan
from repro.pipeline.result import PlanResult
from repro.soc.soc import Soc
from repro.wrapper.design import design_wrapper


def _adjusted_target_bits(
    core, tam_width: int, group_bits: int, *, samples: int
) -> int:
    """Expected group-adjusted target-codeword count for one core.

    Like :func:`repro.compression.estimator.estimate_slice_costs` but
    without the per-slice END codeword (the SOC-level stream pays END
    once per *internal* cycle, not per core) and with the group size of
    the SOC-level code.
    """
    design = design_wrapper(core, tam_width)
    si = design.scan_in_max
    if si == 0:
        return 0
    active = design.active_inputs_per_slice()
    picks = np.minimum(
        ((np.arange(samples) + 0.5) * si / samples).astype(np.int64), si - 1
    )
    rng = np.random.default_rng((core.seed * 0x9E3779B1 ^ tam_width) & 0x7FFFFFFF)
    care = rng.binomial(active[picks], core.care_bit_density)
    ones = rng.binomial(care, core.one_fraction)
    targets = np.minimum(ones, care - ones)
    # Group savings: the core's slice occupies ~tam_width positions of
    # the internal slice, i.e. about tam_width / group_bits groups.
    num_groups = max(1, -(-tam_width // group_bits))
    total_targets = int(targets.sum())
    slice_ids = np.repeat(np.arange(samples), targets)
    group_ids = rng.integers(0, num_groups, size=total_targets)
    per_group = np.bincount(
        slice_ids * num_groups + group_ids, minlength=samples * num_groups
    ).reshape(samples, num_groups)
    cost = np.where(per_group >= GROUP_COPY_THRESHOLD, 2, per_group)
    mean = float(cost.sum(axis=1).mean())
    return int(round(mean * core.patterns * si))


def optimize_soc_level_decompressor(
    soc: Soc,
    ate_channels: int,
    *,
    internal_width: int | None = None,
    mode: Mode = "auto",
    samples: int = DEFAULT_SAMPLES,
    grid: int = DEFAULT_GRID,
    max_tams: int | None = None,
) -> PlanResult:
    """Plan an SOC test with one chip-level decompressor.

    ``internal_width`` defaults to the widest internal TAM the code can
    address from the given channel budget, capped at what the SOC can
    use; pass an explicit value to study the trade-off.
    """
    if ate_channels < 4:
        raise ValueError(
            f"SOC-level decompression needs >= 4 ATE channels, got {ate_channels}"
        )
    started = _time.perf_counter()
    k = ate_channels - 2  # payload bits available at the chip boundary
    addressable = 2**k - 1
    useful_cap = sum(core.max_useful_wrapper_chains for core in soc.cores)
    if internal_width is None:
        internal_width = min(addressable, useful_cap, 8 * ate_channels)
    if internal_width < 1:
        raise ValueError("internal width must be >= 1")
    if internal_width > addressable:
        raise ValueError(
            f"internal width {internal_width} not addressable with "
            f"{ate_channels} ATE channels (max {addressable})"
        )

    internal = plan(
        soc,
        internal_width,
        RunConfig(
            compression="none",
            mode=mode,
            samples=samples,
            grid=grid,
            max_tams=max_tams,
        ),
    )
    group_bits, code_width = code_parameters(internal_width)

    # Per-core adjusted care cost at its internal TAM width.
    scheduled = internal.architecture.scheduled
    width_of_tam = {t.index: t.width for t in internal.architecture.tams}
    extra = sum(
        _adjusted_target_bits(
            soc.core(item.config.core_name),
            width_of_tam[item.tam_index],
            group_bits,
            samples=samples,
        )
        for item in scheduled
    )
    total_codewords = internal.architecture.test_time + extra
    volume = total_codewords * code_width

    # Re-express the architecture: same internal TAMs and slots, but the
    # placement/channel bookkeeping reflects the chip-level decompressor.
    # Per-core volumes are not individually meaningful in this model, so
    # the stream volume is split pro rata by slot length -- over the
    # summed slot lengths, since the slots run concurrently -- and the
    # shares add up to it exactly.
    lengths = [item.end - item.start for item in scheduled]
    cuts = [
        volume * done // (sum(lengths) or 1)
        for done in itertools.accumulate(lengths, initial=0)
    ]
    configs = tuple(
        dataclasses.replace(
            item,
            config=dataclasses.replace(
                item.config,
                uses_compression=True,
                technique="selective",
                code_width=code_width,
                volume=high - low,
            ),
        )
        for item, low, high in zip(scheduled, cuts, cuts[1:])
    )
    architecture = TestArchitecture(
        soc_name=soc.name,
        placement=DecompressorPlacement.SOC_LEVEL,
        tams=internal.architecture.tams,
        scheduled=configs,
        ate_channels=ate_channels,
        ate_cycles=total_codewords,
    )
    return PlanResult(
        soc_name=soc.name,
        width_budget=ate_channels,
        compression="soc-level",
        architecture=architecture,
        cpu_seconds=_time.perf_counter() - started,
        partitions_evaluated=internal.partitions_evaluated,
        strategy=internal.strategy,
    )

