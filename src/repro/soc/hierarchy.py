"""Hierarchical SOC test planning (extension).

Modern SOCs embed pre-designed *child* SOCs ("mega-cores") that arrive
with their own cores and are wrapped as a unit; the parent-level
planner sees only the child's wrapper.  Following the modular
hierarchical-test formulation (Chakrabarty et al., "Test Planning for
Modular Testing of Hierarchical SOCs"), a wrapped child is
characterized by its *test-time-versus-width* envelope: for every
parent TAM width ``w`` granted to the child, the child runs its own
internal test plan and exposes the resulting test time and ATE volume.

:class:`ChildSocCore` computes that envelope by recursively invoking
:func:`repro.pipeline.plan` on the child, and quacks enough like a per-core
lookup for the parent planner (:func:`optimize_hierarchical`) to
schedule children and ordinary cores side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

from repro.core.architecture import (
    CoreConfig,
    DecompressorPlacement,
    TestArchitecture,
)
from repro.core.scheduler import build_architecture
from repro.explore.dse import analysis_for
from repro.search import run_search
from repro.soc.core import Core
from repro.soc.soc import Soc


@dataclass
class ChildSocCore:
    """A wrapped child SOC, seen from the parent as one testable unit.

    Parameters
    ----------
    soc:
        The child design.
    compression:
        Compression mode used *inside* the child when its plan is built
        (a :class:`~repro.pipeline.config.RunConfig` mode).
    max_tams:
        TAM count limit for the child's internal architecture.
    """

    soc: Soc
    compression: str = "per-core"
    max_tams: int | None = None
    _envelope: dict[int, tuple[int, int]] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.soc.name

    def plan_at(self, width: int) -> tuple[int, int]:
        """(test time, volume) of the child at a parent width grant."""
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        cached = self._envelope.get(width)
        if cached is None:
            from repro.pipeline import RunConfig, plan

            config = RunConfig(compression=self.compression, max_tams=self.max_tams)
            result = plan(self.soc, width, config)
            cached = (result.test_time, result.test_data_volume)
            self._envelope[width] = cached
        return cached

    def test_time(self, width: int) -> int:
        return self.plan_at(width)[0]

    def volume(self, width: int) -> int:
        return self.plan_at(width)[1]


Member = Union[Core, ChildSocCore]

#: Compression modes a parent plan applies to its ordinary cores.
LEAF_MODES: tuple[str, ...] = ("none", "per-core", "auto")


@dataclass(frozen=True)
class HierarchicalPlan:
    """Parent-level architecture over cores and wrapped child SOCs."""

    architecture: TestArchitecture
    child_names: tuple[str, ...]

    @property
    def test_time(self) -> int:
        return self.architecture.test_time

    @property
    def test_data_volume(self) -> int:
        return self.architecture.test_data_volume

    @property
    def tam_widths(self) -> tuple[int, ...]:
        return tuple(t.width for t in self.architecture.tams)


def optimize_hierarchical(
    name: str,
    members: Sequence[Member],
    tam_width: int,
    *,
    compression: str = "per-core",
    max_tams: int | None = None,
    min_tam_width: int = 1,
) -> HierarchicalPlan:
    """Plan a parent SOC whose members are cores and/or child SOCs.

    Children are treated as monolithic tests whose duration depends on
    the width of the TAM they are granted (their internal plan);
    ordinary cores go through the usual per-core lookup under
    ``compression`` (one of :data:`LEAF_MODES`).  The parent search is
    :func:`~repro.search.run_search` with the exhaustive backend: it
    list-schedules the members on every TAM partition.
    """
    if compression not in LEAF_MODES:
        raise ValueError(
            f"unknown compression mode {compression!r} for leaf cores; "
            f"expected one of {', '.join(LEAF_MODES)}"
        )
    if not members:
        raise ValueError("cannot plan an empty hierarchy")
    if tam_width < 1:
        raise ValueError(f"TAM width must be >= 1, got {tam_width}")
    names = []
    seen: set[str] = set()
    for member in members:
        label = member.name
        if label in seen:
            raise ValueError(f"duplicate member name: {label}")
        seen.add(label)
        names.append(label)

    by_name = {member.name: member for member in members}
    analyses = {
        member.name: analysis_for(member)
        for member in members
        if isinstance(member, Core)
    }

    def time_of(label: str, width: int) -> int:
        member = by_name[label]
        if isinstance(member, ChildSocCore):
            return member.test_time(width)
        analysis = analyses[label]
        if compression == "none":
            return analysis.uncompressed_point(width).test_time
        best = analysis.best_compressed_for_tam(width)
        plain = analysis.uncompressed_point(width).test_time
        if best is None:
            return plain
        if compression == "auto":
            return min(best.test_time, plain)
        return best.test_time

    def volume_of(label: str, width: int) -> int:
        member = by_name[label]
        if isinstance(member, ChildSocCore):
            return member.volume(width)
        analysis = analyses[label]
        if compression == "none":
            return analysis.uncompressed_point(width).volume
        best = analysis.best_compressed_for_tam(width)
        if best is None or (
            compression == "auto"
            and analysis.uncompressed_point(width).test_time < best.test_time
        ):
            return analysis.uncompressed_point(width).volume
        return best.volume

    def config_of(label: str, width: int) -> CoreConfig:
        member = by_name[label]
        # A child's internal plan (and any compression in it) is
        # encapsulated; the parent sees a monolithic test.
        compressed, code_width, chains = False, None, width
        if isinstance(member, Core):
            chains = min(width, member.max_useful_wrapper_chains)
            if compression != "none" and _core_compressed(
                member, width, analyses, compression
            ):
                best = analyses[label].best_compressed_for_tam(width)
                compressed, code_width, chains = True, best.code_width, best.m
        return CoreConfig(
            core_name=label,
            uses_compression=compressed,
            wrapper_chains=chains,
            code_width=code_width,
            test_time=time_of(label, width),
            volume=volume_of(label, width),
        )

    search = run_search(
        names,
        tam_width,
        time_of,
        max_parts=max_tams,
        min_width=min_tam_width,
        strategy="exhaustive",
    )
    architecture = build_architecture(
        name,
        names,
        search.outcome,
        config_of,
        placement=DecompressorPlacement.PER_CORE
        if compression != "none"
        else DecompressorPlacement.NONE,
        ate_channels=tam_width,
        time_of=time_of,
    )
    children = tuple(
        member.name for member in members if isinstance(member, ChildSocCore)
    )
    return HierarchicalPlan(architecture=architecture, child_names=children)


def _core_compressed(member: Core, width: int, analyses, comp) -> bool:
    analysis = analyses[member.name]
    best = analysis.best_compressed_for_tam(width)
    if best is None:
        return False
    if comp == "auto":
        return best.test_time < analysis.uncompressed_point(width).test_time
    return True
