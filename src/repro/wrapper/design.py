"""Best-Fit-Decreasing wrapper-chain design.

Given a core and a number of wrapper chains ``m``, the wrapper design
problem places the core's scanned elements -- internal scan chains
(indivisible) plus the individual wrapper input/output cells -- onto the
``m`` chains so that the longest scan-in chain (``si``) and longest
scan-out chain (``so``) are minimized.  Minimizing ``max(si, so)``
minimizes the core test time ``(1 + max(si, so)) * p + min(si, so)``.

This is the ``Design_wrapper`` heuristic from Iyengar, Chakrabarty and
Marinissen (ITC 2001 / JETTA 2002), the paper's step 1:

1. sort internal scan chains by decreasing length and assign each to the
   wrapper chain with the currently shortest scan length (Best Fit
   Decreasing, min-max objective);
2. distribute wrapper input cells one at a time to the wrapper chain with
   the shortest scan-in length;
3. distribute wrapper output cells likewise against scan-out length.

Wrapper chains shorter than ``si``/``so`` are padded with idle cycles
during shifting; those pad positions are exactly the "idle bits" the
paper identifies as cause (i) of the non-monotonic compressed test time.
"""

from __future__ import annotations

import heapq
import operator
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from repro import obs
from repro.soc.core import Core


@dataclass(frozen=True)
class WrapperDesign:
    """Result of wrapper-chain design for one core.

    Attributes
    ----------
    core:
        The core the design is for.
    chains_scan:
        Per wrapper chain, the tuple of internal scan-chain indices
        (into ``core.scan_chain_lengths``) assigned to it, in shift order.
    chains_inputs:
        Per wrapper chain, how many wrapper input cells it carries.
    chains_outputs:
        Per wrapper chain, how many wrapper output cells it carries.
    """

    core: Core
    chains_scan: tuple[tuple[int, ...], ...]
    chains_inputs: tuple[int, ...]
    chains_outputs: tuple[int, ...]

    @property
    def num_chains(self) -> int:
        return len(self.chains_scan)

    @cached_property
    def scan_in_lengths(self) -> tuple[int, ...]:
        """Scan-in length of every wrapper chain (input cells + scan FFs)."""
        lengths = self.core.scan_chain_lengths
        return tuple(
            self.chains_inputs[h] + sum(lengths[c] for c in self.chains_scan[h])
            for h in range(self.num_chains)
        )

    @cached_property
    def scan_out_lengths(self) -> tuple[int, ...]:
        """Scan-out length of every wrapper chain (scan FFs + output cells)."""
        lengths = self.core.scan_chain_lengths
        return tuple(
            sum(lengths[c] for c in self.chains_scan[h]) + self.chains_outputs[h]
            for h in range(self.num_chains)
        )

    @cached_property
    def scan_in_max(self) -> int:
        """``si``: the longest scan-in chain (0 for an unscanned design)."""
        return max(self.scan_in_lengths, default=0)

    @cached_property
    def scan_out_max(self) -> int:
        """``so``: the longest scan-out chain."""
        return max(self.scan_out_lengths, default=0)

    @property
    def used_chains(self) -> int:
        """Number of wrapper chains that actually carry elements."""
        return sum(
            1
            for si, so in zip(self.scan_in_lengths, self.scan_out_lengths)
            if si or so
        )

    def active_inputs_per_slice(self) -> np.ndarray:
        """How many wrapper chains carry a *real* stimulus bit per slice.

        With leading-pad alignment, a wrapper chain of scan-in length L
        receives real bits only during the last L of the ``si`` shift-in
        cycles.  Returns an int array of shape ``(si,)`` where entry ``j``
        is the number of chains with a real bit in shift cycle ``j``.  The
        remaining ``m - active`` positions of slice ``j`` are idle bits.

        Computed as a difference histogram: a chain of length L raises
        the count from slice ``si - L`` on, so one bincount over the
        chain lengths plus a cumulative sum replaces the former
        per-chain Python loop (O(si + m) instead of O(si * m)).
        """
        si = self.scan_in_max
        counts = np.zeros(si, dtype=np.int64)
        if si == 0:
            return counts
        lens = np.asarray(self.scan_in_lengths, dtype=np.int64)
        lens = lens[lens > 0]
        if lens.size == 0:
            return counts
        np.cumsum(np.bincount(si - lens, minlength=si)[:si], out=counts)
        return counts

    def scan_in_segments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Contiguous stimulus-bit segments of the scan-in schedule.

        Every wrapper chain's scan-in sequence is a concatenation of
        contiguous runs of stimulus-bit indices (its wrapper input cells,
        then each assigned internal scan chain).  Returns four equal-length
        int64 arrays ``(bit_start, length, slice_start, chain)``: segment
        ``s`` covers stimulus bits ``bit_start[s] .. bit_start[s]+length[s]-1``,
        occupying slices ``slice_start[s] ..`` on wrapper chain
        ``chain[s]``.  This is the compact form of
        :meth:`scan_in_position_matrix` the vectorized kernels consume;
        only non-empty segments are returned.
        """
        core = self.core
        scan_starts = np.concatenate(
            ([0], np.cumsum(core.scan_chain_lengths))
        ).astype(np.int64)
        input_base = int(scan_starts[-1])  # input cells follow all scan cells
        si = self.scan_in_max
        in_lengths = self.scan_in_lengths
        bit_start: list[int] = []
        seg_len: list[int] = []
        slice_start: list[int] = []
        seg_chain: list[int] = []
        next_input_cell = 0
        for h in range(self.num_chains):
            cursor = si - in_lengths[h]
            inputs = self.chains_inputs[h]
            if inputs:
                bit_start.append(input_base + next_input_cell)
                seg_len.append(inputs)
                slice_start.append(cursor)
                seg_chain.append(h)
                next_input_cell += inputs
                cursor += inputs
            for chain_index in self.chains_scan[h]:
                length = core.scan_chain_lengths[chain_index]
                if not length:
                    continue
                bit_start.append(int(scan_starts[chain_index]))
                seg_len.append(length)
                slice_start.append(cursor)
                seg_chain.append(h)
                cursor += length
        return (
            np.asarray(bit_start, dtype=np.int64),
            np.asarray(seg_len, dtype=np.int64),
            np.asarray(slice_start, dtype=np.int64),
            np.asarray(seg_chain, dtype=np.int64),
        )

    def scan_in_position_matrix(self) -> np.ndarray:
        """Map (slice index, wrapper chain) -> stimulus-bit index, or -1.

        The stimulus bit vector of a pattern is ordered: all internal scan
        chain cells first (chain 0's cells in shift order, then chain
        1's, ...), followed by the wrapper input cells.  Within a wrapper
        chain the scan-in sequence is its input cells first, then its
        scan chains in assignment order.  Entry ``[j, h]`` is the stimulus
        bit shifted on wrapper chain ``h`` during cycle ``j`` (leading-pad
        alignment), or -1 for an idle-bit position.

        Built from :meth:`scan_in_segments` with one vectorized scatter
        instead of the former per-cell Python loop.
        """
        si = self.scan_in_max
        matrix = np.full((si, self.num_chains), -1, dtype=np.int64)
        bit_start, seg_len, slice_start, seg_chain = self.scan_in_segments()
        if seg_len.size == 0:
            return matrix
        offsets = np.arange(int(seg_len.sum()), dtype=np.int64)
        offsets -= np.repeat(np.cumsum(seg_len) - seg_len, seg_len)
        bits = np.repeat(bit_start, seg_len) + offsets
        slices = np.repeat(slice_start, seg_len) + offsets
        chains = np.repeat(seg_chain, seg_len)
        matrix[slices, chains] = bits
        return matrix


#: Upper bound on memoized wrapper designs.  Wrapper design is hot (the
#: DSE grid calls it thousands of times per core) but each entry pins a
#: ``Core`` reference via ``WrapperDesign.core``, so a long-lived service
#: analyzing an open-ended stream of designs must evict: least recently
#: used entries go first once the bound is hit.
WRAPPER_CACHE_MAX_ENTRIES = 65536

_WRAPPER_CACHE: OrderedDict[tuple[tuple, int], WrapperDesign] = OrderedDict()
_WRAPPER_CACHE_COUNTERS = {"hits": 0, "misses": 0, "evictions": 0}


def design_wrapper(core: Core, m: int) -> WrapperDesign:
    """Design a wrapper with ``m`` chains for ``core`` using BFD.

    ``m`` may exceed the number of useful chains; the surplus chains stay
    empty (their slice positions become idle bits, which matters for the
    compression analysis).

    Results are memoized in a bounded LRU keyed on the core's *value*
    fingerprint (:meth:`repro.soc.core.Core.cache_key`), so equal cores
    built independently -- e.g. the same design re-parsed from an ITC'02
    file -- share entries instead of growing the cache.
    """
    if m < 1:
        raise ValueError(f"wrapper chain count must be >= 1, got {m}")
    key = (core.cache_key(), m)
    design = _WRAPPER_CACHE.get(key)
    if design is not None:
        _WRAPPER_CACHE.move_to_end(key)
        _WRAPPER_CACHE_COUNTERS["hits"] += 1
        return design
    design = _design_wrapper_uncached(core, m)
    _WRAPPER_CACHE_COUNTERS["misses"] += 1
    obs.inc("wrapper.designs_computed")
    _WRAPPER_CACHE[key] = design
    while len(_WRAPPER_CACHE) > WRAPPER_CACHE_MAX_ENTRIES:
        _WRAPPER_CACHE.popitem(last=False)
        _WRAPPER_CACHE_COUNTERS["evictions"] += 1
    return design


def design_wrappers_batch(core: Core, ms: Iterable[int]) -> dict[int, WrapperDesign]:
    """Wrapper designs for many chain counts of one core in one pass.

    Bit-identical to calling :func:`design_wrapper` per ``m`` (the
    differential suite pins this), but the Best-Fit-Decreasing loop runs
    *across* all candidate chain counts at once: one ``(num_ms, max_m)``
    load matrix, one vectorized argmin per internal scan chain, instead
    of ``num_ms`` independent heap simulations.  Results are shared with
    (and served from) the :func:`design_wrapper` memo.
    """
    wanted = sorted({int(m) for m in ms})
    if not wanted:
        return {}
    if wanted[0] < 1:
        raise ValueError(f"wrapper chain count must be >= 1, got {wanted[0]}")
    out: dict[int, WrapperDesign] = {}
    core_key = core.cache_key()
    missing: list[int] = []
    for m in wanted:
        design = _WRAPPER_CACHE.get((core_key, m))
        if design is not None:
            _WRAPPER_CACHE.move_to_end((core_key, m))
            _WRAPPER_CACHE_COUNTERS["hits"] += 1
            out[m] = design
        else:
            missing.append(m)
    if not missing:
        return out

    with obs.span(
        "kernel.wrapper-batch", requested=len(wanted), missing=len(missing)
    ):
        _design_wrappers_missing(core, core_key, missing, out)
    return out


def _design_wrappers_missing(
    core: Core,
    core_key: tuple,
    missing: list[int],
    out: dict[int, WrapperDesign],
) -> None:
    # BFD and the cell water-fill both fill the lowest-numbered empty
    # chain first, so every chain past the useful count stays empty: a
    # surplus count's design is the useful count's, padded with empty
    # chains.  Only counts up to the useful one run the BFD.
    useful = core.max_useful_wrapper_chains
    direct = [m for m in missing if m <= useful]
    surplus = [m for m in missing if m > useful]
    base = out.get(useful) or _WRAPPER_CACHE.get((core_key, useful))
    if surplus and base is None and useful not in direct:
        direct.append(useful)  # still ascending: every direct m <= useful
    designs = _bfd_designs(core, direct) if direct else {}
    for m in surplus:
        base = base or designs[useful]
        designs[m] = _padded(base, m)
    for m, design in designs.items():
        _WRAPPER_CACHE_COUNTERS["misses"] += 1
        obs.inc("wrapper.designs_computed")
        _WRAPPER_CACHE[(core_key, m)] = design
        out[m] = design
    while len(_WRAPPER_CACHE) > WRAPPER_CACHE_MAX_ENTRIES:
        _WRAPPER_CACHE.popitem(last=False)
        _WRAPPER_CACHE_COUNTERS["evictions"] += 1


def _padded(base: WrapperDesign, m: int) -> WrapperDesign:
    """``base`` with empty wrapper chains appended up to ``m`` chains."""
    pad = m - base.num_chains
    design = WrapperDesign(
        core=base.core,
        chains_scan=base.chains_scan + ((),) * pad,
        chains_inputs=base.chains_inputs + (0,) * pad,
        chains_outputs=base.chains_outputs + (0,) * pad,
    )
    # Empty chains are zero-length and change neither scan maximum.
    return _seeded(
        design,
        base.scan_in_lengths + (0,) * pad,
        base.scan_out_lengths + (0,) * pad,
        base.scan_in_max,
        base.scan_out_max,
    )


def _seeded(
    design: WrapperDesign,
    scan_in: tuple[int, ...],
    scan_out: tuple[int, ...],
    scan_in_max: int,
    scan_out_max: int,
) -> WrapperDesign:
    """``design`` with its scan lengths and maxima already cached.

    The BFD passes know every chain's scan load, so they hand the
    lengths over instead of letting the cached properties re-sum them
    in Python per chain on first read (most of a cold plan's reads of
    ``si``/``so``).  The values are the ones the properties compute.
    """
    cached = vars(design)
    cached["scan_in_lengths"] = scan_in
    cached["scan_out_lengths"] = scan_out
    cached["scan_in_max"] = scan_in_max
    cached["scan_out_max"] = scan_out_max
    return design


def _bfd_designs(core: Core, ms: list[int]) -> dict[int, WrapperDesign]:
    """BFD designs for the ascending chain counts ``ms``, vectorized."""
    lengths = core.scan_chain_lengths
    order = sorted(range(len(lengths)), key=lambda i: lengths[i], reverse=True)
    num_ms = len(ms)
    m_max = ms[-1]
    # Chain counts beyond each candidate's m are fenced with a sentinel
    # load so argmin never assigns to them.  The heap variant resolves
    # load ties to the lowest chain id; np.argmin picks the first
    # minimum, which is the same tie-break.
    sentinel = np.int64(1) << 62
    loads = np.zeros((num_ms, m_max), dtype=np.int64)
    for i, m in enumerate(ms):
        loads[i, m:] = sentinel
    picks = np.empty((len(order), num_ms), dtype=np.int64)
    rows = np.arange(num_ms)
    for t, chain_index in enumerate(order):
        h = np.argmin(loads, axis=1)
        picks[t] = h
        loads[rows, h] += lengths[chain_index]

    picks_list = picks.tolist()
    designs: dict[int, WrapperDesign] = {}
    for i, m in enumerate(ms):
        assignment: list[list[int]] = [[] for _ in range(m)]
        for t, chain_index in enumerate(order):
            assignment[picks_list[t][i]].append(chain_index)
        scan_load = loads[i, :m].tolist()
        chain_order = sorted(range(m), key=lambda h: (scan_load[h], h))
        inputs = _distribute_cells(
            scan_load, m, core.wrapper_input_cells, order=chain_order
        )
        outputs = _distribute_cells(
            scan_load, m, core.wrapper_output_cells, order=chain_order
        )
        designs[m] = _with_loads(core, assignment, scan_load, inputs, outputs)
    return designs


def wrapper_cache_info() -> dict[str, int]:
    """Size and traffic counters of the wrapper-design memo."""
    return {
        "entries": len(_WRAPPER_CACHE),
        "max_entries": WRAPPER_CACHE_MAX_ENTRIES,
        **_WRAPPER_CACHE_COUNTERS,
    }


def clear_wrapper_design_cache() -> None:
    """Drop every memoized wrapper design and reset the counters."""
    _WRAPPER_CACHE.clear()
    for key in _WRAPPER_CACHE_COUNTERS:
        _WRAPPER_CACHE_COUNTERS[key] = 0


def _design_wrapper_uncached(core: Core, m: int) -> WrapperDesign:
    lengths = core.scan_chain_lengths
    order = sorted(range(len(lengths)), key=lambda i: lengths[i], reverse=True)

    # Step 1: BFD of internal scan chains against scan length.  The heap
    # holds (current scan length, chain id); ties resolve to the lowest
    # chain id, which keeps the design deterministic.
    heap: list[tuple[int, int]] = [(0, h) for h in range(m)]
    heapq.heapify(heap)
    assignment: list[list[int]] = [[] for _ in range(m)]
    scan_load = [0] * m
    for chain_index in order:
        load, h = heapq.heappop(heap)
        assignment[h].append(chain_index)
        scan_load[h] = load + lengths[chain_index]
        heapq.heappush(heap, (scan_load[h], h))

    inputs = _distribute_cells(scan_load, m, core.wrapper_input_cells)
    outputs = _distribute_cells(scan_load, m, core.wrapper_output_cells)
    return _with_loads(core, assignment, scan_load, inputs, outputs)


def _with_loads(
    core: Core,
    assignment: list[list[int]],
    scan_load: list[int],
    inputs: list[int],
    outputs: list[int],
) -> WrapperDesign:
    """The design of one BFD pass, seeded from its per-chain scan loads."""
    design = WrapperDesign(
        core=core,
        chains_scan=tuple(tuple(chains) for chains in assignment),
        chains_inputs=tuple(inputs),
        chains_outputs=tuple(outputs),
    )
    scan_in = tuple(map(operator.add, inputs, scan_load))
    scan_out = tuple(map(operator.add, scan_load, outputs))
    return _seeded(
        design, scan_in, scan_out, max(scan_in, default=0), max(scan_out, default=0)
    )


def _distribute_cells(
    scan_load: list[int], m: int, cells: int, *, order: list[int] | None = None
) -> list[int]:
    """Spread ``cells`` wrapper cells over chains, shortest-first.

    Equivalent to adding the cells one at a time to the currently
    shortest chain, but computed in O(m log m + m) by water-filling.
    ``order`` optionally passes the chains pre-sorted by ``(load, id)``
    so callers distributing against the same loads twice (input and
    output cells) share one sort.
    """
    if cells <= 0:
        return [0] * m
    counts = [0] * m
    if order is None:
        order = sorted(range(m), key=lambda h: (scan_load[h], h))
    loads = [scan_load[h] for h in order]
    remaining = cells
    # Water-fill: raise the lowest levels together until cells run out.
    level_index = 0
    while remaining > 0 and level_index < m - 1:
        width = level_index + 1
        gap = loads[level_index + 1] - loads[level_index]
        if gap == 0:
            level_index += 1
            continue
        take = min(remaining, gap * width)
        per_chain, extra = divmod(take, width)
        for pos in range(width):
            add = per_chain + (1 if pos < extra else 0)
            counts[order[pos]] += add
            loads[pos] += add
        remaining -= take
        if loads[level_index] >= loads[level_index + 1]:
            level_index += 1
    if remaining > 0:
        per_chain, extra = divmod(remaining, m)
        for pos in range(m):
            counts[order[pos]] += per_chain + (1 if pos < extra else 0)
    return counts


def pareto_wrapper_designs(core: Core, max_chains: int) -> dict[int, WrapperDesign]:
    """Wrapper designs for every chain count 1..max_chains.

    Returns a dict ``m -> WrapperDesign``.  Callers typically keep only
    the Pareto-optimal entries (test time strictly improves), but the
    full sweep is what the paper's decompressor analysis needs: the
    compressed test time is *not* monotone in ``m``.
    """
    if max_chains < 1:
        raise ValueError(f"max_chains must be >= 1, got {max_chains}")
    designs = design_wrappers_batch(core, range(1, max_chains + 1))
    return {m: designs[m] for m in range(1, max_chains + 1)}
