"""The one compression policy (:mod:`repro.explore.selection`).

Every planner that chooses a core's configuration at a TAM width --
the pipeline's lookup tables, ``CoreAnalysis.time_at_tam`` /
``volume_at_tam``, the hierarchical planner and the bus planner -- must
make the policy's choice, tie rule included: least test time, then
least volume, then plain scan first.
"""

import pytest

from repro.core.bus import optimize_bus
from repro.explore.dse import analysis_for
from repro.explore.selection import (
    POLICY_MODES,
    TechniqueChoice,
    TechniqueSelector,
    choose,
    choose_row,
    core_config,
)
from repro.pipeline import LookupTables, RunConfig, plan
from repro.soc.hierarchy import optimize_hierarchical
from repro.soc.industrial import load_design
from repro.verify import verify_architecture

WIDTHS = range(1, 33)


def _rule(analysis, width, compression):
    """The policy restated from the raw points, for the two-candidate modes."""
    plain = analysis.uncompressed_point(width)
    if compression == "none":
        return plain
    best = analysis.best_compressed_for_tam(width)
    if best is None:
        return plain
    if compression == "per-core":
        return best
    return min((plain, best), key=lambda p: (p.test_time, p.volume))


@pytest.mark.parametrize("compression", ["none", "per-core", "auto"])
@pytest.mark.parametrize("design", ["d695", "System1", "synth20"])
def test_every_planner_makes_the_policy_choice(design, compression):
    soc = load_design(design)
    analyses = {core.name: analysis_for(core) for core in soc.cores}
    tables = LookupTables(analyses, compression, WIDTHS[-1])
    for width in WIDTHS:
        # One TAM: every leaf sits on all ``width`` wires.
        nested = optimize_hierarchical(
            "parent", soc.cores, width, compression=compression, max_tams=1
        )
        leaves = {s.config.core_name: s.config for s in nested.architecture.scheduled}
        for core in soc.cores:
            analysis = analyses[core.name]
            pick = choose(analysis, width, compression)
            assert pick == _rule(analysis, width, compression)
            config = core_config(core, pick)
            assert tables.config_of(core.name, width) == config
            assert tables.time_of(core.name, width) == pick.test_time
            assert analysis.time_at_tam(width, compression=compression) == (
                pick.test_time
            )
            assert analysis.volume_at_tam(width, compression=compression) == (
                pick.volume
            )
            assert leaves[core.name] == config


def test_row_is_the_choice_at_each_width():
    soc = load_design("d695")
    for core in soc.cores[:3]:
        analysis = analysis_for(core)
        for compression in POLICY_MODES:
            selector = TechniqueSelector(analysis)
            row = choose_row(analysis, 16, compression, selector=selector)
            assert row == [
                choose(analysis, w, compression, selector=selector)
                for w in range(1, 17)
            ]


@pytest.mark.parametrize("compression", [True, False, "per-tam", "bogus"])
def test_mode_must_be_a_policy_mode(compression):
    analysis = analysis_for(load_design("d695").cores[0])
    with pytest.raises(ValueError, match="unknown compression mode"):
        analysis.time_at_tam(8, compression=compression)
    with pytest.raises(ValueError, match="unknown compression mode"):
        choose(analysis, 8, compression)


def test_width_must_be_positive():
    analysis = analysis_for(load_design("d695").cores[0])
    with pytest.raises(ValueError, match="TAM width"):
        choose(analysis, 0, "auto")


# ---------------------------------------------------------------------------
# The tie: synth100's sc1 takes 407 cycles at W=8 either way.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sc1():
    return load_design("synth100").subset(["sc1"])


def test_sc1_ties_at_width_8(sc1):
    analysis = analysis_for(sc1.cores[0])
    plain = analysis.uncompressed_point(8)
    best = analysis.best_compressed_for_tam(8)
    assert plain.test_time == best.test_time == 407
    assert (plain.volume, best.volume) == (2944, 1472)
    assert (best.m, best.code_width) == (2, 4)


def test_every_auto_planner_takes_the_smaller_volume_on_the_tie(sc1):
    (core,) = sc1.cores
    flat = plan(sc1, 8, RunConfig(compression="auto", verify=True))
    nested = optimize_hierarchical("p", [core], 8, compression="auto")
    for architecture in (flat.architecture, nested.architecture):
        (slot,) = architecture.scheduled
        config = slot.config
        assert (config.wrapper_chains, config.code_width) == (2, 4)
        assert (config.test_time, config.volume) == (407, 1472)
    bus = optimize_bus(sc1, 8, compression="auto")
    (segment,) = bus.schedule.segments
    assert bus.rates[core.name] == 8
    assert segment.duration == 407
    assert segment.power == 4.0  # the decompressor taps its code width


def test_hierarchical_auto_plan_on_the_tie_verifies(sc1):
    (core,) = sc1.cores
    nested = optimize_hierarchical("p", [core], 8, compression="auto")
    report = verify_architecture(
        nested.architecture, soc=sc1, analyses={core.name: analysis_for(core)}
    )
    assert report.ok, report.summary()


def test_full_tie_keeps_plain_scan(sc1):
    # At W=4 plain scan and the decompressor match in time and volume.
    analysis = analysis_for(sc1.cores[0])
    plain = analysis.uncompressed_point(4)
    best = analysis.best_compressed_for_tam(4)
    assert (plain.test_time, plain.volume) == (best.test_time, best.volume)
    assert choose(analysis, 4, "auto") is plain
    assert choose(analysis, 4, "select") is plain


def test_auto_equals_select_without_a_dictionary(sc1):
    """``select`` adds only the dictionary to ``auto``'s candidates."""
    analysis = analysis_for(sc1.cores[0])
    selector = TechniqueSelector(analysis)
    auto = choose_row(analysis, WIDTHS[-1], "auto")
    select = choose_row(analysis, WIDTHS[-1], "select", selector=selector)
    assert any(
        a.test_time == analysis.uncompressed_point(w).test_time
        and a is not analysis.uncompressed_point(w)
        for w, a in zip(WIDTHS, auto)
    )  # the input ties, and the decompressor wins some ties
    compared = 0
    for width, (a, s) in enumerate(zip(auto, select), start=1):
        if isinstance(s, TechniqueChoice):
            assert s.technique == "dictionary"
            continue
        assert a is s
        choice = selector.select(width)
        config = core_config(sc1.cores[0], a)
        assert (choice.technique, choice.test_time, choice.volume) == (
            config.technique,
            config.test_time,
            config.volume,
        )
        compared += 1
    assert compared > 0
    flat_auto = plan(sc1, 8, RunConfig(compression="auto"))
    flat_select = plan(sc1, 8, RunConfig(compression="select"))
    assert flat_select.architecture.scheduled == flat_auto.architecture.scheduled
