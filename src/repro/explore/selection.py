"""Per-core compression-technique selection (extension).

The authors' follow-up paper ("Core-Level Compression Technique
Selection and SOC Test Architecture Design", ATS 2008 -- the first
entry in this paper's related-work trail) observes that no single
compression scheme wins for every core: the best choice depends on the
core's care-bit statistics and the TAM width it is granted.  This
module implements that selection step over the three techniques this
repository provides:

* ``none`` -- wrapper straight on the TAM;
* ``selective`` -- the paper's selective-encoding decompressor;
* ``dictionary`` -- fixed-length-index dictionary decompression
  (exact-analysis cores only: building a dictionary needs the actual
  cubes, so estimator-mode industrial cores fall back to the first two).

The selected configuration plugs into the SOC optimizer via
``plan(soc, W, RunConfig(compression="select"))``.

Dictionary statistics (hit rates, compressed bits) depend only on the
slice width ``m`` and the index width -- not on the TAM width, which
only scales the delivery cycles -- so :class:`TechniqueSelector` builds
each dictionary once per core and answers every TAM-width query from
that cache.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compression.dictionary import (
    DictionaryStats,
    build_dictionary,
    compression_stats,
    delivery_cycles,
)
from repro.explore.dse import CoreAnalysis
from repro.wrapper.design import design_wrapper

#: Dictionary index widths tried per core.
DEFAULT_INDEX_BITS = (4, 8)


@dataclass(frozen=True)
class TechniqueChoice:
    """Winning technique for one core at one TAM width."""

    core_name: str
    tam_width: int
    technique: str  # "none" | "selective" | "dictionary"
    test_time: int
    volume: int
    wrapper_chains: int
    code_width: int | None
    index_bits: int | None = None
    hit_rate: float | None = None


class TechniqueSelector:
    """Technique selection for one core, with cached dictionary builds."""

    def __init__(
        self,
        analysis: CoreAnalysis,
        *,
        index_bits_options: tuple[int, ...] = DEFAULT_INDEX_BITS,
    ) -> None:
        self.analysis = analysis
        self.index_bits_options = index_bits_options
        # (m, index_bits) -> (stats, si, so); built lazily, once per key.
        self._stats: dict[tuple[int, int], tuple[DictionaryStats, int, int]] = {}
        self._choices: dict[int, TechniqueChoice] = {}

    # ------------------------------------------------------------------

    def _slice_width_ladder(self) -> list[int]:
        """Wrapper-chain counts worth building dictionaries for."""
        top = self.analysis.core.max_useful_wrapper_chains
        ladder = []
        m = 4
        while m < top:
            ladder.append(m)
            m *= 2
        ladder.append(top)
        return sorted(set(ladder))

    def _stats_for(self, m: int, index_bits: int):
        key = (m, index_bits)
        cached = self._stats.get(key)
        if cached is None:
            core = self.analysis.core
            design = design_wrapper(core, m)
            slices = self.analysis.cubes.slices(design).reshape(-1, m)
            if 2**index_bits > slices.shape[0]:
                cached = (None, 0, 0)  # dictionary bigger than the stream
            else:
                dictionary = build_dictionary(slices, index_bits)
                stats = compression_stats(slices, dictionary)
                cached = (stats, design.scan_in_max, design.scan_out_max)
            self._stats[key] = cached
        return cached

    def dictionary_choice(self, tam_width: int) -> TechniqueChoice | None:
        """Best dictionary configuration, or ``None`` when unavailable."""
        if self.analysis.mode != "exact":
            return None
        core = self.analysis.core
        best: TechniqueChoice | None = None
        for m in self._slice_width_ladder():
            for index_bits in self.index_bits_options:
                stats, si, so = self._stats_for(m, index_bits)
                if stats is None:
                    continue
                cycles = delivery_cycles(stats, tam_width)
                time = cycles + core.patterns + min(si, so)
                if best is None or time < best.test_time:
                    best = TechniqueChoice(
                        core_name=core.name,
                        tam_width=tam_width,
                        technique="dictionary",
                        test_time=time,
                        volume=stats.compressed_bits,
                        wrapper_chains=m,
                        code_width=tam_width,
                        index_bits=index_bits,
                        hit_rate=stats.hit_rate,
                    )
        return best

    # ------------------------------------------------------------------

    def select(self, tam_width: int) -> TechniqueChoice:
        """Pick the fastest of {none, selective, dictionary}."""
        cached = self._choices.get(tam_width)
        if cached is not None:
            return cached
        core = self.analysis.core
        plain = self.analysis.uncompressed_point(tam_width)
        candidates = [
            TechniqueChoice(
                core_name=core.name,
                tam_width=tam_width,
                technique="none",
                test_time=plain.test_time,
                volume=plain.volume,
                wrapper_chains=min(tam_width, core.max_useful_wrapper_chains),
                code_width=None,
            )
        ]
        selective = self.analysis.best_compressed_for_tam(tam_width)
        if selective is not None:
            candidates.append(
                TechniqueChoice(
                    core_name=core.name,
                    tam_width=tam_width,
                    technique="selective",
                    test_time=selective.test_time,
                    volume=selective.volume,
                    wrapper_chains=selective.m,
                    code_width=selective.code_width,
                )
            )
        dictionary = self.dictionary_choice(tam_width)
        if dictionary is not None:
            candidates.append(dictionary)
        choice = min(candidates, key=lambda c: (c.test_time, c.volume))
        self._choices[tam_width] = choice
        return choice


def select_technique(
    analysis: CoreAnalysis,
    tam_width: int,
    *,
    index_bits_options: tuple[int, ...] = DEFAULT_INDEX_BITS,
) -> TechniqueChoice:
    """One-shot selection (convenience over :class:`TechniqueSelector`)."""
    selector = TechniqueSelector(analysis, index_bits_options=index_bits_options)
    return selector.select(tam_width)
