"""Unit tests for table formatting and the experiment drivers.

Driver tests here use the smallest workable configurations; the full
paper-scale runs live in the benchmark harness.
"""

import pytest

from repro.reporting.tables import format_float, format_table
from repro.reporting.experiments import (
    Figure2Data,
    figure2_data,
    figure3_data,
    format_figure2,
    format_figure3,
    format_figure4,
    format_table1,
    format_table2,
    format_table3,
    Table1Row,
    Table2Row,
    Table3Row,
)


class TestFormatting:
    def test_format_float_integers(self):
        assert format_float(3.0) == "3"
        assert format_float(3.14159) == "3.14"
        assert format_float(float("inf")) == "inf"

    def test_format_table_alignment(self):
        text = format_table(["name", "n"], [("abc", 1), ("de", 22)])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "---" in lines[1]
        assert lines[2].split()[0] == "abc"

    def test_format_table_title(self):
        text = format_table(["a"], [(1,)], title="My Table")
        assert text.splitlines()[0] == "My Table"


class TestFigure2Driver:
    def test_fast_sweep(self):
        # A cheap code width keeps the sweep small: w=8 -> m in [32, 63].
        data = figure2_data("ckt-2", code_width=8, grid=8)
        assert len(data.m_values) >= 2
        assert data.tau_min <= min(data.test_times)
        assert data.argmin_m in data.m_values
        assert 0.0 <= data.relative_spread < 1.0

    def test_format_contains_min(self):
        data = Figure2Data(
            core_name="x",
            code_width=5,
            m_values=(4, 5, 6),
            test_times=(10, 8, 9),
        )
        text = format_figure2(data, every=1)
        assert "min at m=5" in text
        assert not data.is_monotonic

    def test_infeasible_width_raises(self):
        with pytest.raises(ValueError):
            figure2_data("ckt-2", code_width=30)


class TestFigure3Driver:
    def test_fast_sweep(self):
        data = figure3_data("ckt-2", code_widths=range(6, 9), grid=6)
        assert list(data.code_widths) == [6, 7, 8]
        assert all(t > 0 for t in data.test_times)
        text = format_figure3(data)
        assert "Figure 3" in text


class TestTableFormatting:
    def test_table1_format(self):
        rows = [Table1Row("d", 16, 1000, 800), Table1Row("d", 32, 700, None)]
        text = format_table1(rows)
        assert "W_ATE" in text
        assert "n.a." in text
        assert "1.25" in text  # 1000/800

    def test_table2_format(self):
        rows = [Table2Row("d", 16, 900, 1800, 6)]
        text = format_table2(rows)
        assert "W_TAM" in text
        assert "0.50" in text

    def test_table3_row_ratios(self):
        row = Table3Row(
            design="s",
            gates=10,
            initial_volume_bits=4_000_000,
            tam_width=16,
            time_no_tdc=1_000_000,
            volume_no_tdc=2_000_000,
            cpu_no_tdc=0.5,
            time_tdc=100_000,
            volume_tdc=200_000,
            cpu_tdc=1.5,
        )
        assert row.time_reduction == pytest.approx(10.0)
        assert row.volume_reduction == pytest.approx(10.0)
        assert row.volume_reduction_vs_initial == pytest.approx(20.0)
        text = format_table3([row])
        assert "average time reduction, all designs: 10.00x" in text

    def test_table3_zero_division_guard(self):
        row = Table3Row(
            design="s",
            gates=1,
            initial_volume_bits=1,
            tam_width=1,
            time_no_tdc=1,
            volume_no_tdc=1,
            cpu_no_tdc=0.0,
            time_tdc=0,
            volume_tdc=0,
            cpu_tdc=0.0,
        )
        assert row.time_reduction == float("inf")


class TestFigure4Format:
    def test_formats_without_running(self):
        # Build a Figure4Data-like object from two tiny optimizer runs is
        # costly; instead exercise the formatter through a fast SOC.
        from repro.reporting.experiments import Figure4Data
        from repro.pipeline import RunConfig, plan
        from repro.soc.core import Core
        from repro.soc.soc import Soc

        cores = tuple(
            Core(
                name=f"c{i}",
                inputs=6,
                outputs=6,
                scan_chain_lengths=(10,) * 24,
                patterns=30,
                care_bit_density=0.04,
                seed=i,
            )
            for i in range(2)
        )
        soc = Soc(name="mini", cores=cores)
        data = Figure4Data(
            soc_name="mini",
            width_budget=10,
            no_tdc=plan(soc, 10, RunConfig(compression="none")),
            per_tam=plan(soc, 10, RunConfig(compression="per-tam")),
            per_core=plan(soc, 10, RunConfig(compression="per-core")),
        )
        text = format_figure4(data)
        assert "(a) no TDC" in text
        assert "(c) decompressor per core" in text
        # Compression beats no-TDC on this sparse SOC.
        assert data.per_core.test_time < data.no_tdc.test_time
