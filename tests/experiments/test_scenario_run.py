"""Scenario campaigns and sweeps: the data-driven runner entry point."""

import json

import pytest

from repro.context import run_context
from repro.experiments.runner import main
from repro.experiments.scenario_run import (
    run_scenario_campaign,
    run_scenario_sweep,
    scenario_specs,
)
from repro.robustness.faults import FaultPlan
from repro.scenarios import resolve_scenario_ref

FLOWS = 2
DURATION = 4.0


class TestScenarioSpecs:
    def test_specs_are_seeded_independently(self):
        document = resolve_scenario_ref("hsr-china-mobile")
        specs = scenario_specs(document, flows=3, duration=DURATION, seed=7)
        assert len(specs) == 3
        assert len({spec.seed for spec in specs}) == 3
        assert [spec.flow_id for spec in specs] == [
            f"scenario/hsr-china-mobile/{i}" for i in range(3)
        ]

    def test_ambient_fault_plan_applies(self):
        document = resolve_scenario_ref("hsr-china-mobile")
        plan = FaultPlan.aggressive()
        with run_context(faults=plan):
            (spec,) = scenario_specs(document, flows=1, duration=DURATION, seed=7)
        assert spec.scenario.channel_hook is not None
        clean = scenario_specs(document, flows=1, duration=DURATION, seed=7)[0]
        assert clean.scenario.channel_hook is None


class TestCampaign:
    def test_campaign_result_shape(self):
        result = run_scenario_campaign(
            "driving-china-telecom", flows=FLOWS, duration=DURATION, seed=5
        )
        assert result.experiment_id == "scenario:driving-china-telecom"
        (row,) = result.rows
        assert row["scenario"] == "driving-china-telecom"
        assert row["provider"] == "China Telecom"
        assert row["flows"] == FLOWS
        assert row["failed"] == 0
        assert row["throughput_pps"] > 0

    def test_campaign_accepts_file_ref(self, tmp_path):
        from repro.scenarios import document_to_yaml

        document = resolve_scenario_ref("stationary-china-mobile")
        path = tmp_path / "copy.yaml"
        path.write_text(document_to_yaml(document), encoding="utf-8")
        result = run_scenario_campaign(
            str(path), flows=1, duration=DURATION, seed=5
        )
        assert result.experiment_id == "scenario:stationary-china-mobile"


class TestSweep:
    def test_sweep_compares_scenarios(self):
        result = run_scenario_sweep(
            ["hsr-china-mobile", "stationary-china-mobile"],
            flows=FLOWS,
            duration=DURATION,
            seed=5,
        )
        assert [row["scenario"] for row in result.rows] == [
            "hsr-china-mobile",
            "stationary-china-mobile",
        ]
        assert result.headline["scenarios"] == 2
        best = result.headline["best_pps"]
        worst = result.headline["worst_pps"]
        assert best >= worst > 0


class TestRunnerCli:
    def test_run_scenario(self, capsys):
        code = main(
            ["run", "--scenario", "driving-china-telecom",
             "--flows", "2", "--duration", "4", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment_id"] == "scenario:driving-china-telecom"

    def test_run_rejects_both_id_and_scenario(self, capsys):
        code = main(["run", "table1", "--scenario", "hsr-china-mobile"])
        assert code == 2
        assert "not both" in capsys.readouterr().err

    def test_run_requires_something(self, capsys):
        assert main(["run"]) == 2

    def test_sweep_cli(self, capsys):
        code = main(
            ["sweep", "hsr-china-mobile", "stationary-china-mobile",
             "--flows", "1", "--duration", "4", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["rows"]) == 2

    def test_sweep_without_refs_errors(self, capsys):
        assert main(["sweep"]) == 2
        assert "--all" in capsys.readouterr().err

    def test_unknown_scenario_exits_2(self, capsys):
        code = main(["run", "--scenario", "no-such-scenario"])
        assert code == 2
        assert "error:" in capsys.readouterr().err
