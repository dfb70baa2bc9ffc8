"""Unit tests for the architecture data model and its validation."""

import pytest

from repro.core.architecture import (
    CoreConfig,
    DecompressorPlacement,
    ScheduledCore,
    Tam,
    TestArchitecture,
    architecture_summary,
)
from repro.verify import verify_architecture


def _config(name, time=10, volume=100, compressed=False):
    return CoreConfig(
        core_name=name,
        uses_compression=compressed,
        wrapper_chains=4,
        code_width=5 if compressed else None,
        test_time=time,
        volume=volume,
    )


def _slot(name, tam, start, time=10, **kw):
    return ScheduledCore(
        config=_config(name, time=time, **kw), tam_index=tam, start=start, end=start + time
    )


def _arch(slots, tams=None):
    tams = tams or (Tam(0, 4), Tam(1, 2))
    return TestArchitecture(
        soc_name="soc",
        placement=DecompressorPlacement.NONE,
        tams=tams,
        scheduled=tuple(slots),
        ate_channels=6,
    )


class TestValidation:
    def test_tam_width_positive(self):
        with pytest.raises(ValueError):
            Tam(0, 0)

    def test_compressed_config_needs_code_width(self):
        with pytest.raises(ValueError, match="code width"):
            CoreConfig(
                core_name="a",
                uses_compression=True,
                wrapper_chains=4,
                code_width=None,
                test_time=1,
                volume=1,
            )

    def test_slot_length_must_match_test_time(self):
        with pytest.raises(ValueError, match="slot length"):
            ScheduledCore(config=_config("a", time=5), tam_index=0, start=0, end=9)

    def test_unknown_tam_rejected(self):
        with pytest.raises(ValueError, match="unknown TAM"):
            _arch([_slot("a", 7, 0)])

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            _arch([_slot("a", 0, 0), _slot("b", 0, 5)])

    def test_back_to_back_allowed(self):
        arch = _arch([_slot("a", 0, 0), _slot("b", 0, 10)])
        assert arch.test_time == 20

    def test_parallel_tams_allowed(self):
        arch = _arch([_slot("a", 0, 0), _slot("b", 1, 0)])
        assert arch.test_time == 10


class TestDerived:
    def test_totals(self):
        arch = _arch([_slot("a", 0, 0), _slot("b", 1, 0, time=25)])
        assert arch.total_tam_width == 6
        assert arch.test_time == 25
        assert arch.test_data_volume == 200

    def test_cores_per_tam_in_start_order(self):
        arch = _arch([_slot("b", 0, 10), _slot("a", 0, 0)])
        assert arch.cores_per_tam[0] == ("a", "b")

    def test_tam_finish_times(self):
        arch = _arch([_slot("a", 0, 0), _slot("b", 1, 0, time=3)])
        assert arch.tam_finish_times() == {0: 10, 1: 3}

    def test_config_lookup(self):
        arch = _arch([_slot("a", 0, 0)])
        assert arch.config_for("a").core_name == "a"
        with pytest.raises(KeyError):
            arch.config_for("zzz")

    def test_empty_schedule(self):
        arch = _arch([])
        assert arch.test_time == 0
        assert arch.render_gantt() == "(empty schedule)"


class TestRendering:
    def test_gantt_mentions_cores_and_totals(self):
        arch = _arch([_slot("alpha", 0, 0), _slot("beta", 1, 0)])
        text = arch.render_gantt()
        assert "TAM0" in text and "TAM1" in text
        assert "total: 10 cycles" in text

    def test_summary(self):
        arch = _arch([_slot("alpha", 0, 0)])
        text = architecture_summary(arch)
        assert "soc" in text and "alpha" in text and "(idle)" in text

    def test_adjacent_slots_never_share_a_cell(self):
        # A 10-cycle test next to a 990-cycle one: both slots used to
        # round to column 0, so the long test's '#' fill painted over
        # the short test's label entirely.
        arch = _arch(
            [_slot("a", 0, 0, time=10), _slot("b", 0, 10, time=990)]
        )
        row = arch.render_gantt().splitlines()[0]
        cells = row.split("|")[1]
        assert "a" in cells
        assert "b" in cells
        assert cells.index("a") < cells.index("b")

    def test_every_slot_gets_a_cell_even_when_tiny(self):
        # Three tiny tests before one huge one; each must keep at least
        # one distinct cell, in schedule order.
        slots = [
            _slot("a", 0, 0, time=1),
            _slot("b", 0, 1, time=1),
            _slot("c", 0, 2, time=1),
            _slot("d", 0, 3, time=9997),
        ]
        row = _arch(slots).render_gantt().splitlines()[0]
        cells = row.split("|")[1]
        positions = [cells.index(ch) for ch in "abcd"]
        assert positions == sorted(positions)
        assert len(set(positions)) == 4


class TestWidthBudget:
    """The one width rule is the verifier's (fixed TAMs: the width sum)."""

    @staticmethod
    def _two_tams(widths, channels):
        return TestArchitecture(
            soc_name="x",
            placement=DecompressorPlacement.NONE,
            tams=tuple(Tam(i, w) for i, w in enumerate(widths)),
            scheduled=(),
            ate_channels=channels,
        )

    def test_within_budget(self):
        assert verify_architecture(self._two_tams((3, 2), 5)).ok

    def test_exceeded(self):
        report = verify_architecture(self._two_tams((4, 2), 5))
        assert [v.code for v in report.violations] == ["width-budget"]
        assert "TAM widths sum to 6 > 5" in report.violations[0].message
