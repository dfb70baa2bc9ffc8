"""One verification path: the ``--verify`` gate and ``verify_plan`` on an export.

The pipeline's verify stage and :func:`verify_plan` on a re-imported
export apply one rule set, read from the plan's own fields -- its TAM
wire offsets, decompressor placement, ATE cycles, budgets and stated
peak -- never from its strategy label.  Every flow either honours what
its config asks for or refuses it before planning, so a plan the gate
passes is a plan the export's verifier passes.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.cli import build_parser, main
from repro.core.robust import robust_plan
from repro.core.soclevel import optimize_soc_level_decompressor
from repro.pipeline import COMPRESSION_MODES, RunConfig, plan
from repro.power.model import power_table
from repro.reporting.export import result_from_json, result_to_json
from repro.soc.industrial import load_design
from repro.verify import verify_plan

BASE = RunConfig(use_cache=False)
PACKING = dict(architecture="packing", schedule="packing")

#: Every stage pair but the constrained one, with the options its search
#: needs to stay quick.
UNCONSTRAINED = {
    ("packing", "packing"): (),
    ("per-tam", "per-tam"): (),
    ("partition", "list"): (),
    ("exhaustive", "list"): (),
    ("greedy", "list"): (),
    ("anneal", "list"): (("iterations", "100"),),
    ("evolutionary", "list"): (("generations", "3"), ("population", "8")),
    ("robust", "list"): (),
}


def _stages(pair: tuple[str, str]) -> RunConfig:
    architecture, schedule = pair
    return BASE.replace(
        architecture=architecture,
        schedule=schedule,
        search_opts=UNCONSTRAINED[pair],
    )


def _budget(soc, fraction: float = 0.6) -> float:
    return fraction * sum(power_table(soc, compression=True).values())


def _round_trip(result):
    return result_from_json(result_to_json(result))


def _edited(result, edit):
    """``result`` re-imported from its export after ``edit(payload)``."""
    payload = json.loads(result_to_json(result))
    edit(payload)
    return result_from_json(json.dumps(payload))


def _codes(report) -> list[str]:
    return [v.code for v in report.violations]


# ---------------------------------------------------------------------------
# The label and the gate change nothing.
# ---------------------------------------------------------------------------


def golden_flows(soc) -> dict[str, RunConfig]:
    return {
        "per-core": BASE,
        "none": BASE.replace(compression="none"),
        "auto": BASE.replace(compression="auto"),
        "select": BASE.replace(compression="select"),
        "power": BASE.replace(power_budget=_budget(soc)),
        "per-tam": BASE.replace(compression="per-tam"),
        "packing": BASE.replace(**PACKING),
        "robust": BASE,
    }


@pytest.mark.parametrize("design", ["d695", "System1"])
def test_label_and_gate_change_nothing(design):
    """The export verifies as the gate did, whatever its strategy says."""
    soc = load_design(design)
    for flow, config in golden_flows(soc).items():
        verified = []

        def sink(event):
            if event.kind == "verified":
                verified.append(event.payload)

        config = config.replace(verify=True)
        if flow == "robust":
            result = robust_plan(soc, 16, config, events=sink).result
        else:
            result = plan(soc, 16, config, events=sink)
        back = _round_trip(result)
        report = verify_plan(back, soc)
        relabelled = verify_plan(dataclasses.replace(back, strategy="x"), soc)
        assert report.ok, f"{flow}: {report.summary()}"
        assert (relabelled.ok, relabelled.checks) == (True, report.checks), flow
        assert verified == [
            {"checks": len(report.checks), "violations": 0}
        ], flow


# ---------------------------------------------------------------------------
# Every flow honours its config, or refuses it before planning.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("pair", list(UNCONSTRAINED), ids="+".join)
@pytest.mark.parametrize("ask", ["power_budget", "precedence"])
def test_constraints_outside_the_constrained_flow_are_refused(tiny_soc, pair, ask):
    names = tiny_soc.core_names
    asked = {
        "power_budget": {"power_budget": 5.0},
        "precedence": {"precedence": ((names[0], names[1]),)},
    }[ask]
    events = []
    with pytest.raises(ValueError, match=r"flow does not honour a power budget"):
        plan(tiny_soc, 8, _stages(pair).replace(**asked), events=events.append)
    assert events == []


def test_robust_plan_refuses_a_budget(tiny_soc):
    with pytest.raises(ValueError, match="the robust flow does not honour"):
        robust_plan(tiny_soc, 8, BASE.replace(power_budget=5.0))


@pytest.mark.parametrize(
    "pair",
    [pair for pair in [*UNCONSTRAINED, ("constrained", "constrained")]
     if pair != ("per-tam", "per-tam")],
    ids="+".join,
)
def test_per_tam_compression_needs_the_per_tam_stages(tiny_soc, pair):
    architecture, schedule = pair
    config = BASE.replace(
        compression="per-tam", architecture=architecture, schedule=schedule
    )
    with pytest.raises(ValueError, match="needs the per-tam architecture"):
        plan(tiny_soc, 8, config)
    if pair == ("robust", "list"):
        with pytest.raises(ValueError, match="the robust flow reads"):
            robust_plan(tiny_soc, 8, BASE.replace(compression="per-tam"))


@pytest.mark.parametrize(
    "pair",
    [("packing", "packing"), ("per-tam", "per-tam"), ("evolutionary", "list")],
    ids="+".join,
)
def test_power_map_peak_is_the_plans(pair):
    """Without a budget the plan states its peak under the map."""
    soc = load_design("d695")
    config = _stages(pair).replace(
        power_of=power_table(soc, compression=True), verify=True
    )
    result = plan(soc, 16, config)
    assert result.peak_power > 0
    report = verify_plan(_round_trip(result), soc, config=config)
    assert report.ok, report.summary()
    assert "peak-power" in report.checks


def test_robust_plan_runs_the_verify_stage(tiny_soc):
    kinds = []
    robust_plan(
        tiny_soc, 8, BASE.replace(verify=True), events=lambda e: kinds.append(e.kind)
    )
    assert "verified" in kinds


# ---------------------------------------------------------------------------
# Corrupted plans the geometry rules catch.
# ---------------------------------------------------------------------------


class TestGeometry:
    @pytest.fixture(scope="class")
    def d695(self):
        return load_design("d695")

    def test_per_tam_export_on_fewer_channels(self, d695):
        result = plan(d695, 16, BASE.replace(compression="per-tam"))
        assert verify_plan(_round_trip(result), d695).ok

        def cut(payload):
            payload["ate_channels"] = 8
            payload["optimizer"]["width_budget"] = 8

        report = verify_plan(_edited(result, cut), d695)
        assert _codes(report) == ["width-budget"]
        assert "code widths sum to 16 > 8" in report.violations[0].message

    def busy_together(self, result):
        """Two scheduled cores on different TAMs, busy at one instant."""
        slots = result.architecture.scheduled
        for i, a in enumerate(slots):
            for b in slots[i + 1 :]:
                if a.start < b.end and b.start < a.end:
                    return a, b
        raise AssertionError("no two tests run at once")

    def test_packed_tams_sharing_a_wire(self, d695):
        result = plan(d695, 16, BASE.replace(**PACKING))
        a, b = self.busy_together(result)

        def share(payload):
            tams = {tam["index"]: tam for tam in payload["tams"]}
            tams[b.tam_index]["offset"] = tams[a.tam_index]["offset"]

        assert "wire-overlap" in _codes(verify_plan(_edited(result, share), d695))

    def test_packed_offsets_stripped(self, d695):
        result = plan(d695, 16, BASE.replace(**PACKING))

        def strip(payload):
            for tam in payload["tams"]:
                del tam["offset"]

        report = verify_plan(_edited(result, strip), d695)
        assert _codes(report) == ["width-budget"]
        assert result.architecture.total_tam_width > 16


# ---------------------------------------------------------------------------
# SOC-level plans prove out from their export.
# ---------------------------------------------------------------------------


class TestSocLevel:
    @pytest.fixture(scope="class")
    def system1(self):
        soc = load_design("System1")
        return soc, optimize_soc_level_decompressor(soc, 16)

    def test_clean_directly_and_after_round_trip(self, system1):
        soc, result = system1
        back = _round_trip(result)
        assert back.test_time == result.test_time == 40_300_557
        assert back == result
        for subject in (result, back):
            report = verify_plan(subject, soc)
            assert report.ok, report.summary()
            assert {"code-width", "volume-model", "time-model"} <= set(
                report.checks
            )

    def test_volume_is_the_stream(self, system1):
        _, result = system1
        architecture = result.architecture
        (code_width,) = {s.config.code_width for s in architecture.scheduled}
        assert result.test_data_volume == architecture.ate_cycles * code_width

    @staticmethod
    def narrow(payload):
        payload["schedule"][0]["code_width"] -= 1

    @staticmethod
    def stretch(payload):
        payload["ate_cycles"] += 1

    @staticmethod
    def slow(payload):
        entry = payload["schedule"][0]
        entry["test_time"] += 1000
        entry["end"] += 1000

    @pytest.mark.parametrize(
        "edit, code",
        [("narrow", "code-width"), ("stretch", "volume-model"), ("slow", "time-model")],
    )
    def test_corrupted_chip_plan(self, system1, edit, code):
        """Each chip-level rule catches its own corruption, alone."""
        soc, result = system1
        report = verify_plan(_edited(result, getattr(self, edit)), soc)
        assert _codes(report) == [code]

    def test_ate_cycles_need_a_chip_decompressor(self):
        soc = load_design("d695")
        result = plan(soc, 16, BASE)

        def stretch(payload):
            payload["ate_cycles"] = 10 * result.test_time

        report = verify_plan(_edited(result, stretch), soc)
        assert _codes(report) == ["placement-consistency"]


# ---------------------------------------------------------------------------
# CLI.
# ---------------------------------------------------------------------------


def test_compression_choices_come_from_one_list():
    parser = build_parser()
    for command in ("plan", "verify", "export", "simulate", "submit", "power"):
        for mode in COMPRESSION_MODES:
            argv = [command, "d695", "--width", "16", "--compression", mode]
            if command == "power" and mode == "per-tam":
                # A budget is planned by the constrained flow only.
                with pytest.raises(SystemExit):
                    parser.parse_args(argv)
            else:
                assert parser.parse_args(argv).compression == mode, command


def test_plan_per_tam_from_the_cli(capsys):
    code = main(
        ["plan", "d695", "--width", "16", "--compression", "per-tam", "--verify",
         "--no-cache"]
    )
    assert code == 0
    assert "placement=per-tam" in capsys.readouterr().out


def test_verify_soc_level_export(tmp_path, capsys):
    soc = load_design("System1")
    path = tmp_path / "soc-level.json"
    path.write_text(result_to_json(optimize_soc_level_decompressor(soc, 16)))
    assert main(["verify", "--plan", str(path), "--no-cache"]) == 0
    assert "plan:System1: ok" in capsys.readouterr().out
