"""Scheduling-facing lookup tables over the per-core analyses.

:class:`LookupTables` backs the scheduler's ``time_of`` / ``config_of``
callbacks.  It is built once per plan, in the decompressor stage: for
every core it keeps the compression policy's pick
(:func:`~repro.explore.selection.choose_row`: none / per-core / auto
bypass / technique select) at each TAM width ``1..W`` of the budget in
one dense row.  The architecture and schedule stages then only read the
rows, so the wrapper and decompressor design of the paper's steps 1-2
is paid -- and timed -- before the search starts.  ``time_of`` reads
the pick's test time; ``config_of`` turns the pick into a
:class:`~repro.core.architecture.CoreConfig`
(:func:`~repro.explore.selection.core_config`) on its first read, because
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

from repro.core.architecture import CoreConfig
from repro.explore.dse import CoreAnalysis
from repro.explore.selection import Pick, choose_row, core_config


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
        self._rows: dict[str, list[Pick]] = {
            name: choose_row(analysis, width_budget, compression)
            for name, analysis in analyses.items()
        }
        self._configs: dict[str, list[CoreConfig | None]] = {
            name: [None] * width_budget for name in analyses
        }

    # ------------------------------------------------------------------

    def time_of(self, name: str, width: int) -> int:
        return self._rows[name][self._index(width)].test_time

    def config_of(self, name: str, width: int) -> CoreConfig:
        index = self._index(width)
        configs = self._configs[name]
        config = configs[index]
        if config is None:
            pick = self._rows[name][index]
            config = configs[index] = core_config(self._analyses[name].core, pick)
        return config

    def _index(self, width: int) -> int:
        if not 1 <= width <= self.width_budget:
            raise ValueError(
                f"TAM width {width} outside the table's 1..{self.width_budget}"
            )
        return width - 1
