"""Tests for the command-line interface."""

import random

import pytest

from repro.cli import build_parser, main
from repro.search import PartitionSearchResult, backend, register_backend


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_plan_args(self):
        args = build_parser().parse_args(
            ["plan", "d695", "--width", "16", "--no-compression", "--gantt"]
        )
        assert args.design == "d695"
        assert args.width == 16
        assert args.no_compression and args.gantt


class TestCommands:
    def test_describe(self, capsys):
        assert main(["describe", "d695"]) == 0
        out = capsys.readouterr().out
        assert "d695" in out and "s5378" in out

    def test_plan_small(self, capsys):
        assert main(["plan", "d695", "--width", "8", "--no-compression"]) == 0
        out = capsys.readouterr().out
        assert "test time=" in out
        assert "partitions evaluated" in out

    def test_plan_with_gantt(self, capsys):
        code = main(
            ["plan", "d695", "--width", "8", "--no-compression", "--gantt"]
        )
        assert code == 0
        assert "TAM0" in capsys.readouterr().out

    def test_unknown_figure(self, capsys):
        assert main(["figure", "9"]) == 2
        assert "no figure 9" in capsys.readouterr().err

    def test_unknown_table(self, capsys):
        assert main(["table", "9"]) == 2
        assert "no table 9" in capsys.readouterr().err

    def test_unknown_design_raises(self):
        with pytest.raises(KeyError):
            main(["describe", "bogus"])

    def test_simulate_matches_plan(self, capsys):
        code = main(["simulate", "d695", "--width", "8", "--compression", "none"])
        assert code == 0
        assert "MATCH" in capsys.readouterr().out

    def test_export_to_stdout(self, capsys):
        assert main(["export", "d695", "--width", "8"]) == 0
        out = capsys.readouterr().out
        assert '"schema": 1' in out

    def test_export_to_file(self, tmp_path, capsys):
        target = tmp_path / "plan.json"
        assert main(["export", "d695", "--width", "8", "--out", str(target)]) == 0
        assert target.exists()
        from repro.reporting.export import architecture_from_json

        rebuilt = architecture_from_json(target.read_text())
        assert rebuilt.soc_name == "d695"

    def test_power_command(self, capsys):
        code = main(
            [
                "power",
                "d695",
                "--width",
                "8",
                "--compression",
                "none",
                "--budget-fraction",
                "0.9",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "peak power" in out


class _Random100:
    """The ``docs/search.md`` example: cost 100 random partitions whole."""

    name = "random100"
    hyperparameters = {"seed": int}

    def run(self, evaluator, space, *, seed=0):
        rng = random.Random(seed)
        most = min(space.max_parts, space.total_width // space.min_width)
        for _ in range(100):
            widths = [space.min_width] * rng.randint(1, most)
            for _ in range(space.total_width - sum(widths)):
                widths[rng.randrange(len(widths))] += 1
            evaluator.schedule(sorted(widths, reverse=True))
        return PartitionSearchResult(
            outcome=evaluator.best,
            partitions_evaluated=evaluator.evaluations,
            strategy=self.name,
        )


class TestRegisteredStrategy:
    """``plan --strategy`` reaches any backend in the registry."""

    @pytest.fixture
    def random100(self):
        register_backend(_Random100())
        yield
        del backend._BACKENDS["random100"]

    def test_registered_backend_plans(self, random100, capsys):
        argv = ["plan", "d695", "--width", "16", "--strategy", "random100"]
        assert main(argv + ["--no-cache"]) == 0
        assert "(random100)" in capsys.readouterr().out

    def test_unregistered_backend_lists_the_registry(self, capsys):
        argv = ["plan", "d695", "--width", "16", "--strategy", "random100"]
        assert main(argv + ["--no-cache"]) == 2
        err = capsys.readouterr().err
        assert "unknown strategy 'random100'" in err
        assert "available: auto, anneal, evolutionary, exhaustive, greedy" in err


class TestBenchmarksCommand:
    def test_table_lists_all_designs(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        for name in ("d695", "d2758", "System1", "System4"):
            assert name in out
        assert "cores" in out and "academic" in out and "industrial" in out

    def test_json_is_machine_readable(self, capsys):
        import json

        assert main(["benchmarks", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        by_name = {row["name"]: row for row in rows}
        assert by_name["d695"]["cores"] == 10
        assert by_name["d695"]["family"] == "academic"
        assert by_name["System1"]["family"] == "industrial"
        assert all(row["scan_cells"] > 0 for row in rows)


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 7465
        assert args.isolation == "process"
        assert args.queue_depth == 64

    def test_serve_flags(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--port",
                "0",
                "--jobs",
                "2",
                "--queue-depth",
                "5",
                "--isolation",
                "thread",
                "--state-dir",
                "/tmp/state",
            ]
        )
        assert args.port == 0 and args.jobs == 2
        assert args.queue_depth == 5
        assert args.isolation == "thread"
        assert args.state_dir == "/tmp/state"

    def test_submit_requires_width(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "d695"])

    def test_submit_flags(self):
        args = build_parser().parse_args(
            [
                "submit",
                "d695",
                "--width",
                "16",
                "--priority",
                "3",
                "--no-wait",
                "--port",
                "7465",
            ]
        )
        assert args.design == "d695" and args.width == 16
        assert args.priority == 3 and args.no_wait

    def test_status_accepts_optional_job_id(self):
        args = build_parser().parse_args(["status"])
        assert args.job_id is None
        args = build_parser().parse_args(["status", "job-abc"])
        assert args.job_id == "job-abc"
