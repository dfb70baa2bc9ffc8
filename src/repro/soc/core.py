"""Core description for modular SOC test planning.

A :class:`Core` captures exactly the information the paper's flow needs
about an embedded core: its functional terminals (which become wrapper
cells), its internal scan chains (indivisible items during wrapper design),
its test-set size, and -- because we synthesize test cubes rather than run
ATPG on the original netlists -- the care-bit density of its test cubes.

The conventions follow the IEEE 1500 / ITC'02 modular-test literature:

* every functional input and every bidirectional terminal contributes one
  *wrapper input cell* to the scan-in path;
* every functional output and every bidir contributes one *wrapper output
  cell* to the scan-out path;
* internal scan chains are fixed, indivisible segments that must be placed
  whole onto a wrapper chain.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Core:
    """An embedded core to be wrapped and tested.

    Parameters
    ----------
    name:
        Unique identifier within an SOC (e.g. ``"s38417"`` or ``"ckt-7"``).
    inputs:
        Number of functional input terminals.
    outputs:
        Number of functional output terminals.
    bidirs:
        Number of bidirectional terminals.  A bidir needs both a wrapper
        input cell and a wrapper output cell.
    scan_chain_lengths:
        Lengths of the internal scan chains, in flip-flops.  The tuple may
        be empty for purely combinational cores.
    patterns:
        Number of test patterns in the core's test set.
    care_bit_density:
        Fraction of specified (non-X) bits in the core's test cubes.
        ISCAS'89-class cores are dense (~0.4-0.7); modern industrial cores
        are sparse (0.01-0.05), which is what makes compression pay off.
    one_fraction:
        Fraction of the specified bits that are logic 1.  Test cubes from
        ATPG are usually roughly balanced; 0.5 by default.
    seed:
        Seed for the core's synthetic test-cube generator, so that every
        analysis of this core sees the same test data.
    gates:
        Approximate logic gate count (used only for reporting, mirroring
        Table 3's "no. of gates" column).
    """

    name: str
    inputs: int
    outputs: int
    bidirs: int = 0
    scan_chain_lengths: tuple[int, ...] = field(default_factory=tuple)
    patterns: int = 1
    care_bit_density: float = 0.5
    one_fraction: float = 0.5
    seed: int = 0
    gates: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("core name must be non-empty")
        for label, value in (
            ("inputs", self.inputs),
            ("outputs", self.outputs),
            ("bidirs", self.bidirs),
        ):
            if value < 0:
                raise ValueError(f"{label} must be >= 0, got {value}")
        if self.patterns < 1:
            raise ValueError(f"patterns must be >= 1, got {self.patterns}")
        if not 0.0 < self.care_bit_density <= 1.0:
            raise ValueError(
                f"care_bit_density must be in (0, 1], got {self.care_bit_density}"
            )
        if not 0.0 <= self.one_fraction <= 1.0:
            raise ValueError(
                f"one_fraction must be in [0, 1], got {self.one_fraction}"
            )
        lengths = tuple(int(x) for x in self.scan_chain_lengths)
        if any(x <= 0 for x in lengths):
            raise ValueError("scan chain lengths must be positive")
        object.__setattr__(self, "scan_chain_lengths", lengths)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------

    @property
    def scan_cells(self) -> int:
        """Total number of internal scan flip-flops."""
        return sum(self.scan_chain_lengths)

    @property
    def num_scan_chains(self) -> int:
        return len(self.scan_chain_lengths)

    @property
    def wrapper_input_cells(self) -> int:
        """Wrapper cells on the scan-in side (inputs + bidirs)."""
        return self.inputs + self.bidirs

    @property
    def wrapper_output_cells(self) -> int:
        """Wrapper cells on the scan-out side (outputs + bidirs)."""
        return self.outputs + self.bidirs

    @property
    def scan_in_bits(self) -> int:
        """Bits loaded per pattern: input wrapper cells + scan cells."""
        return self.wrapper_input_cells + self.scan_cells

    @property
    def scan_out_bits(self) -> int:
        """Bits unloaded per pattern: output wrapper cells + scan cells."""
        return self.wrapper_output_cells + self.scan_cells

    @property
    def is_combinational(self) -> bool:
        return not self.scan_chain_lengths

    @cached_property
    def max_useful_wrapper_chains(self) -> int:
        """Most wrapper chains that can each receive at least one item.

        Items on the scan-in side are the internal scan chains plus the
        individual wrapper input cells; beyond this count, extra wrapper
        chains necessarily stay empty on the scan-in side.  A core always
        supports at least one wrapper chain.
        """
        items = self.num_scan_chains + max(
            self.wrapper_input_cells, self.wrapper_output_cells
        )
        return max(1, items)

    @property
    def test_data_volume(self) -> int:
        """Raw (uncompressed, unpadded) stimulus volume in bits.

        This is the ``V_i`` column of the paper's Table 3: every pattern
        specifies one bit per scan cell and per wrapper input cell.
        """
        return self.patterns * self.scan_in_bits

    # ------------------------------------------------------------------
    # Identity for caching
    # ------------------------------------------------------------------

    def cache_key(self) -> tuple:
        """Value-identity tuple over every field that affects analysis.

        Two :class:`Core` instances with equal cache keys produce
        bit-identical wrapper designs, cube sets and estimates.  Used to
        key in-process caches without pinning the ``Core`` objects
        themselves (the tuple holds only primitives).
        """
        key = self.__dict__.get("_cache_key")
        if key is None:
            key = (
                self.name,
                self.inputs,
                self.outputs,
                self.bidirs,
                self.scan_chain_lengths,
                self.patterns,
                self.care_bit_density,
                self.one_fraction,
                self.seed,
            )
            object.__setattr__(self, "_cache_key", key)
        return key

    def fingerprint(self) -> str:
        """Stable hex digest of :meth:`cache_key`.

        Content-addresses the core for the persistent analysis cache
        (:mod:`repro.explore.cache`): the digest survives process
        restarts and is independent of object identity.  ``gates`` is
        excluded -- it only affects reporting, never analysis results.
        """
        text = repr(self.cache_key())
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def with_patterns(self, patterns: int) -> "Core":
        """Return a copy of this core with a different test-set size."""
        return replace(self, patterns=patterns)

    def with_seed(self, seed: int) -> "Core":
        """Return a copy of this core with a different cube-generator seed."""
        return replace(self, seed=seed)

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.name}: {self.inputs} in / {self.outputs} out / "
            f"{self.bidirs} bidir, {self.num_scan_chains} scan chains "
            f"({self.scan_cells} cells), {self.patterns} patterns, "
            f"care density {self.care_bit_density:.3f}"
        )


def balanced_chain_lengths(total_cells: int, num_chains: int) -> tuple[int, ...]:
    """Split ``total_cells`` flip-flops into ``num_chains`` near-equal chains.

    Used when a benchmark source reports only the flip-flop total and the
    chain count.  The first ``total_cells % num_chains`` chains get one
    extra cell, matching the usual scan-stitching convention.
    """
    if num_chains <= 0:
        if total_cells:
            raise ValueError("cannot place scan cells into zero chains")
        return ()
    if total_cells < num_chains:
        raise ValueError(
            f"cannot split {total_cells} cells into {num_chains} non-empty chains"
        )
    base, extra = divmod(total_cells, num_chains)
    return tuple(base + 1 if i < extra else base for i in range(num_chains))


def varied_chain_lengths(
    total_cells: int,
    num_chains: int,
    *,
    spread: float = 0.15,
    seed: int = 0,
) -> tuple[int, ...]:
    """Split ``total_cells`` into ``num_chains`` chains with bounded skew.

    Real scan stitching rarely produces perfectly balanced chains; the
    paper's cause (i) of non-monotonic test time (idle bits that balance
    wrapper chains) only exists when chain lengths differ.  ``spread`` is
    the maximum relative deviation of a chain from the mean length.  The
    result is deterministic in ``seed`` and always sums to ``total_cells``.
    """
    import numpy as np

    if not 0.0 <= spread < 1.0:
        raise ValueError(f"spread must be in [0, 1), got {spread}")
    balanced = balanced_chain_lengths(total_cells, num_chains)
    if spread == 0.0 or num_chains <= 1:
        return balanced
    rng = np.random.default_rng(seed)
    mean = total_cells / num_chains
    jitter = rng.uniform(-spread, spread, size=num_chains) * mean
    lengths = np.maximum(1, np.rint(np.asarray(balanced) + jitter).astype(int))
    # Repair the sum while keeping every chain at least one cell long.
    deficit = total_cells - int(lengths.sum())
    order = rng.permutation(num_chains)
    i = 0
    while deficit != 0:
        idx = order[i % num_chains]
        step = 1 if deficit > 0 else -1
        if lengths[idx] + step >= 1:
            lengths[idx] += step
            deficit -= step
        i += 1
    return tuple(int(x) for x in lengths)


def total_scan_elements(cores: Iterable[Core]) -> int:
    """Sum of scan cells over a collection of cores."""
    return sum(core.scan_cells for core in cores)


def validate_cores(cores: Sequence[Core]) -> None:
    """Raise ``ValueError`` if core names collide."""
    seen: set[str] = set()
    for core in cores:
        if core.name in seen:
            raise ValueError(f"duplicate core name: {core.name}")
        seen.add(core.name)
