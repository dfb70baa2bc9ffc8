"""The compression policy: the configuration a core uses at a TAM width.

Every planner asks the same question of a core's analysis: which
configuration does the core use on a ``w``-wide TAM under a
:class:`~repro.pipeline.config.RunConfig` compression mode?
:func:`choose` answers it, :func:`choose_row` answers it at every width
of a budget, and :func:`core_config` turns the answer into a
:class:`~repro.core.architecture.CoreConfig`.  The mode fixes the
candidates, in this order:

* ``none`` -- plain scan, the wrapper straight on the TAM;
* ``per-core`` -- the paper's selective-encoding decompressor, the
  fastest whose code fits the width
  (:meth:`~repro.explore.dse.CoreAnalysis.best_compressed_for_tam`),
  or plain scan below three wires, where no code fits;
* ``auto`` -- plain scan, then that decompressor (a bypass);
* ``select`` -- plain scan, that decompressor, then a
  fixed-length-index dictionary decompressor (exact-analysis cores
  only: building a dictionary needs the actual cubes).

One rule picks among them: least test time, then least volume, then
the earlier candidate.  So plain scan wins a full tie, and ``auto``
equals ``select`` wherever ``select`` picks no dictionary.

``select`` is the authors' ATS 2008 follow-up (no compression scheme
wins for every core and width).  A dictionary depends only on ``m``
and the index width, so :class:`TechniqueSelector` builds each one once
per core and answers every TAM width from that cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TypeAlias

from repro.compression.dictionary import (
    DictionaryStats,
    build_dictionary,
    compression_stats,
    delivery_cycles,
)
from repro.core.architecture import CoreConfig
from repro.explore.dse import CompressedPoint, CoreAnalysis, UncompressedPoint
from repro.soc.core import Core
from repro.wrapper.design import design_wrapper

#: The compression modes that choose per core (``per-tam`` shares one
#: decompressor per TAM instead).
POLICY_MODES: tuple[str, ...] = ("none", "per-core", "auto", "select")

#: What the policy picks at one width: a plain-scan point, a
#: decompressor point, or a dictionary choice.
Pick: TypeAlias = "UncompressedPoint | CompressedPoint | TechniqueChoice"


def choose_row(
    analysis: CoreAnalysis,
    max_tam_width: int,
    compression: str,
    *,
    selector: TechniqueSelector | None = None,
) -> list[Pick]:
    """The policy's pick at every width ``1..max_tam_width`` (entry ``w - 1``).

    Each kind of candidate costs one batched pass: a BFD pass for plain
    scan, a kernel pass for the decompressors.  Under ``select`` the
    ``selector`` keeps the core's dictionaries (a fresh one by default).
    """
    if compression not in POLICY_MODES:
        raise ValueError(
            f"unknown compression mode {compression!r} for a per-core "
            f"choice; expected one of {', '.join(POLICY_MODES)}"
        )
    if max_tam_width < 1:
        raise ValueError(f"TAM width must be >= 1, got {max_tam_width}")
    widths = range(1, max_tam_width + 1)
    if compression == "per-core":
        bests = analysis.best_compressed_row(max_tam_width)
        # A code that fits w wires fits any wider TAM, so the widths
        # without one are a prefix of the row.  (Points are truthy;
        # filtering them skips the dataclass ``__eq__`` of a count.)
        narrow = len(bests) - len(list(filter(None, bests)))
        return analysis.uncompressed_points(widths[:narrow]) + bests[narrow:]
    analysis.precompute(max_tam_width, compression="none")
    picks: list[Pick] = analysis.uncompressed_points(widths)
    if compression == "none":
        return picks
    challengers: list[list] = [analysis.best_compressed_row(max_tam_width)]
    if compression == "select":
        selector = selector or TechniqueSelector(analysis)
        challengers.append([selector.dictionary_choice(w) for w in widths])
    for row in challengers:
        # The one rule: a challenger replaces the pick so far only with
        # less test time, or as much test time and less volume.
        picks = [
            new
            if new is not None
            and (
                new.test_time < old.test_time
                or new.test_time == old.test_time
                and new.volume < old.volume
            )
            else old
            for old, new in zip(picks, row)
        ]
    return picks


def choose(
    analysis: CoreAnalysis,
    tam_width: int,
    compression: str,
    *,
    selector: TechniqueSelector | None = None,
) -> Pick:
    """The configuration the core uses on a ``tam_width``-wide TAM."""
    return choose_row(analysis, tam_width, compression, selector=selector)[-1]


def core_config(core: Core, pick: Pick) -> CoreConfig:
    """The :class:`~repro.core.architecture.CoreConfig` of ``core`` under ``pick``.

    Plain scan drives one wrapper chain per TAM wire, up to the chains
    the core can use.
    """
    if isinstance(pick, UncompressedPoint):
        technique = "none"
        chains = min(pick.tam_width, core.max_useful_wrapper_chains)
        code_width = None
    elif isinstance(pick, CompressedPoint):
        technique, chains, code_width = "selective", pick.m, pick.code_width
    else:
        technique = pick.technique
        chains, code_width = pick.wrapper_chains, pick.code_width
    return CoreConfig(
        core_name=core.name,
        uses_compression=technique != "none",
        wrapper_chains=chains,
        code_width=code_width,
        test_time=pick.test_time,
        volume=pick.volume,
        technique=technique,
    )


# ---------------------------------------------------------------------------
# Technique selection: the dictionary candidate of ``select``.
# ---------------------------------------------------------------------------

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
        """The ``select`` policy's pick at ``tam_width``, as a choice."""
        if tam_width not in self._choices:
            pick = choose(self.analysis, tam_width, "select", selector=self)
            if not isinstance(pick, TechniqueChoice):
                config = core_config(self.analysis.core, pick)
                pick = TechniqueChoice(
                    config.core_name,
                    tam_width,
                    config.technique,
                    config.test_time,
                    config.volume,
                    config.wrapper_chains,
                    config.code_width,
                )
            self._choices[tam_width] = pick
        return self._choices[tam_width]


def select_technique(
    analysis: CoreAnalysis,
    tam_width: int,
    *,
    index_bits_options: tuple[int, ...] = DEFAULT_INDEX_BITS,
) -> TechniqueChoice:
    """One-shot selection (convenience over :class:`TechniqueSelector`)."""
    selector = TechniqueSelector(analysis, index_bits_options=index_bits_options)
    return selector.select(tam_width)
