"""Scheduling-facing lookup tables over the per-core analyses.

:class:`LookupTables` backs the scheduler's ``time_of`` / ``config_of``
callbacks.  It is built once per plan, in the decompressor stage: for
every core it applies the compression policy (none / per-core / auto
bypass / technique select) at each TAM width ``1..W`` of the budget
and keeps the pick -- the analysis point or technique choice -- in one
dense row.  The architecture and schedule stages then only read the
rows, so the wrapper and decompressor design of the paper's steps 1-2
is paid -- and timed -- before the search starts.  ``time_of`` reads
the pick's test time; ``config_of`` wraps the pick in a
:class:`~repro.core.architecture.CoreConfig` on its first read, because
a plan reads few of the cores x W configurations.

Each row costs one batched kernel pass per core over every code width
up to ``min(W, max_code_width)``
(:meth:`~repro.explore.dse.CoreAnalysis.best_compressed_row`).  The
uncompressed wrapper design is evaluated only at the widths the
policy reads: under ``per-core`` only where no code fits (fewer than
three wires); under ``none``, ``auto`` and ``select`` at every width,
in one batched BFD pass.  A table holds cores x W entries, so it is
bounded by construction and needs no eviction.
"""

from __future__ import annotations

from typing import TypeAlias

from repro.core.architecture import CoreConfig
from repro.explore.dse import CompressedPoint, CoreAnalysis, UncompressedPoint
from repro.explore.selection import TechniqueChoice, TechniqueSelector

#: What a row holds at one width: the point or choice the policy picked.
Pick: TypeAlias = "CompressedPoint | UncompressedPoint | TechniqueChoice"


class LookupTables:
    """Per-SOC time/volume/config rows backing the scheduler."""

    def __init__(
        self,
        analyses: dict[str, CoreAnalysis],
        compression: str,
        width_budget: int,
    ) -> None:
        self.compression = compression
        self.width_budget = width_budget
        self._analyses = analyses
        self._rows = {name: self._row(analysis) for name, analysis in analyses.items()}
        self._configs: dict[str, list[CoreConfig | None]] = {
            name: [None] * width_budget for name in analyses
        }

    # ------------------------------------------------------------------

    def _row(self, analysis: CoreAnalysis) -> list[Pick]:
        """The policy's pick at every width, entry ``w - 1``."""
        budget = self.width_budget
        widths = range(1, budget + 1)
        if self.compression == "per-core":
            # A code fits from three wires up; below that the wrapper
            # sits straight on the TAM.
            bests = analysis.best_compressed_row(budget)
            # A code that fits w wires fits any wider TAM, so the widths
            # without one are a prefix of the row.
            narrow = bests.count(None)
            return analysis.uncompressed_points(range(1, narrow + 1)) + bests[narrow:]
        # The other policies read the uncompressed point at every width:
        # one batched BFD pass designs them all.
        analysis.precompute(budget, compressed=False)
        plains = analysis.uncompressed_points(widths)
        if self.compression == "none":
            return plains
        if self.compression == "select":
            analysis.best_compressed_for_tam(budget)  # one kernel pass
            selector = TechniqueSelector(analysis)
            return [selector.select(width) for width in widths]
        return [
            best if best is not None and best.test_time < plain.test_time else plain
            for best, plain in zip(analysis.best_compressed_row(budget), plains)
        ]

    def _config(self, name: str, pick: Pick) -> CoreConfig:
        if isinstance(pick, TechniqueChoice):
            return CoreConfig(
                core_name=name,
                uses_compression=pick.technique != "none",
                wrapper_chains=pick.wrapper_chains,
                code_width=pick.code_width,
                test_time=pick.test_time,
                volume=pick.volume,
                technique=pick.technique,
            )
        if isinstance(pick, CompressedPoint):
            return CoreConfig(
                core_name=name,
                uses_compression=True,
                wrapper_chains=pick.m,
                code_width=pick.code_width,
                test_time=pick.test_time,
                volume=pick.volume,
            )
        return CoreConfig(
            core_name=name,
            uses_compression=False,
            wrapper_chains=min(
                pick.tam_width, self._analyses[name].core.max_useful_wrapper_chains
            ),
            code_width=None,
            test_time=pick.test_time,
            volume=pick.volume,
        )

    # ------------------------------------------------------------------

    def time_of(self, name: str, width: int) -> int:
        return self._rows[name][self._index(width)].test_time

    def config_of(self, name: str, width: int) -> CoreConfig:
        index = self._index(width)
        configs = self._configs[name]
        config = configs[index]
        if config is None:
            config = configs[index] = self._config(name, self._rows[name][index])
        return config

    def _index(self, width: int) -> int:
        if not 1 <= width <= self.width_budget:
            raise ValueError(
                f"TAM width {width} outside the table's 1..{self.width_budget}"
            )
        return width - 1
