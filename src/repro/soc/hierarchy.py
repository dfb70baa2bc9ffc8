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
from repro.pipeline.tables import LookupTables
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
    ordinary cores take the compression policy's pick under
    ``compression`` (one of :data:`LEAF_MODES`), read from the lookup
    tables a flat plan builds.  The parent search is
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

    children = {m.name: m for m in members if isinstance(m, ChildSocCore)}
    # Ordinary cores read the compression policy's rows, as in a flat plan.
    leaves = {m.name: analysis_for(m) for m in members if isinstance(m, Core)}
    tables = LookupTables(leaves, compression, tam_width)

    def time_of(label: str, width: int) -> int:
        child = children.get(label)
        if child is None:
            return tables.time_of(label, width)
        return child.test_time(width)

    def config_of(label: str, width: int) -> CoreConfig:
        child = children.get(label)
        if child is None:
            return tables.config_of(label, width)
        # A child's internal plan (and any compression in it) is
        # encapsulated; the parent sees a monolithic test.
        test_time, volume = child.plan_at(width)
        return CoreConfig(
            core_name=label,
            uses_compression=False,
            wrapper_chains=width,
            code_width=None,
            test_time=test_time,
            volume=volume,
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
    return HierarchicalPlan(architecture=architecture, child_names=tuple(children))
