"""CLI resilience: `all` survives failing experiments; watchdog flags plumb."""

import argparse

import pytest

import repro.experiments.runner as runner_module
from repro.experiments.registry import (
    ExperimentFailure,
    ExperimentResult,
    run_experiment_safe,
)
from repro.experiments.runner import main
from repro.robustness.watchdog import current_watchdog


class TestRunExperimentSafe:
    def test_success_returns_result(self):
        result, failure = run_experiment_safe("fig5")
        assert failure is None
        assert result.experiment_id == "fig5"

    def test_unknown_id_still_raises(self):
        with pytest.raises(KeyError):
            run_experiment_safe("fig99")

    def test_crash_becomes_failure_record(self, monkeypatch):
        import repro.experiments.registry as registry_module

        def exploding(scale=1.0, seed=2015):
            raise RuntimeError("boom")

        monkeypatch.setitem(
            registry_module._REGISTRY, "exploding", ("Exploding", exploding)
        )
        result, failure = run_experiment_safe("exploding")
        assert result is None
        assert failure.experiment_id == "exploding"
        assert failure.error_type == "RuntimeError"
        assert "boom" in failure.summary()


class TestAllCommandResilience:
    @pytest.fixture()
    def fake_registry(self, monkeypatch):
        """Three tiny fake experiments, the middle one broken."""

        def fake_list():
            return {"ok1": "first", "broken": "second", "ok2": "third"}

        def fake_safe(experiment_id, scale=1.0, seed=2015, workers=1, cc=None):
            if experiment_id == "broken":
                return None, ExperimentFailure(
                    experiment_id="broken",
                    error_type="SimulationError",
                    error="injected",
                )
            return (
                ExperimentResult(experiment_id=experiment_id, title=experiment_id),
                None,
            )

        monkeypatch.setattr(runner_module, "list_experiments", fake_list)
        monkeypatch.setattr(runner_module, "run_experiment_safe", fake_safe)

    def test_all_keeps_going_and_exits_nonzero(self, fake_registry, capsys):
        assert main(["all"]) == 1
        captured = capsys.readouterr()
        # Both healthy experiments still ran and printed.
        assert "ok1" in captured.out and "ok2" in captured.out
        # The failure is a one-line summary on stderr.
        assert "FAILED broken: SimulationError: injected" in captured.err

    def test_all_green_exits_zero(self, fake_registry, monkeypatch):
        monkeypatch.setattr(
            runner_module,
            "run_experiment_safe",
            lambda experiment_id, scale=1.0, seed=2015, workers=1, cc=None: (
                ExperimentResult(experiment_id=experiment_id, title=experiment_id),
                None,
            ),
        )
        assert main(["all"]) == 0

    def test_run_failure_exits_one(self, fake_registry, capsys):
        assert main(["run", "broken"]) == 1
        assert "FAILED broken" in capsys.readouterr().err


class TestWorkersArg:
    def test_accepted_values(self):
        assert runner_module._workers_arg("auto") == "auto"
        assert runner_module._workers_arg("3") == 3

    def test_rejects_other_strings(self):
        for value in ("turbo", "lockstep", "fabric", "warp-speed"):
            with pytest.raises(argparse.ArgumentTypeError):
                runner_module._workers_arg(value)


class TestWatchdogFlags:
    def test_flags_accepted_and_run_succeeds(self, capsys):
        code = main(
            ["run", "fig5", "--timeout-s", "600", "--max-events", "10000000"]
        )
        assert code == 0
        assert "Fig. 5" in capsys.readouterr().out

    def test_zero_disables_watchdog(self, monkeypatch, capsys):
        seen = {}

        def spying_safe(experiment_id, scale=1.0, seed=2015, workers=1, cc=None):
            seen["watchdog"] = current_watchdog()
            return (
                ExperimentResult(experiment_id=experiment_id, title=experiment_id),
                None,
            )

        monkeypatch.setattr(runner_module, "run_experiment_safe", spying_safe)
        assert main(["run", "fig5", "--timeout-s", "0", "--max-events", "0"]) == 0
        assert seen["watchdog"] is None

    def test_flags_install_ambient_watchdog(self, monkeypatch):
        seen = {}

        def spying_safe(experiment_id, scale=1.0, seed=2015, workers=1, cc=None):
            seen["watchdog"] = current_watchdog()
            return (
                ExperimentResult(experiment_id=experiment_id, title=experiment_id),
                None,
            )

        monkeypatch.setattr(runner_module, "run_experiment_safe", spying_safe)
        assert main(["run", "fig5", "--timeout-s", "120", "--max-events", "5000"]) == 0
        watchdog = seen["watchdog"]
        assert watchdog is not None
        assert watchdog.max_events == 5000
        assert watchdog.wall_clock_s == 120.0

    def test_chaos_flag_installs_fault_plan(self, monkeypatch):
        from repro.robustness.faults import current_fault_plan

        seen = {}

        def spying_safe(experiment_id, scale=1.0, seed=2015, workers=1, cc=None):
            seen["plan"] = current_fault_plan()
            return (
                ExperimentResult(experiment_id=experiment_id, title=experiment_id),
                None,
            )

        monkeypatch.setattr(runner_module, "run_experiment_safe", spying_safe)
        assert main(["run", "fig5", "--chaos", "1.5"]) == 0
        assert seen["plan"] is not None
        assert not seen["plan"].is_noop()
