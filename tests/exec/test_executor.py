"""Unit tests for the executor: backends, retries, quarantine, reports."""

import pytest

import repro.exec.executor as executor_module
from repro.context import run_context
from repro.exec import (
    Executor,
    FlowSpec,
    ProcessPoolBackend,
    SerialBackend,
    SupervisedBackend,
    simulate_spec,
)
from repro.robustness.campaign import CampaignReport, RetryPolicy
from repro.robustness.watchdog import Watchdog
from repro.simulator.connection import ConnectionConfig
from repro.util.errors import ConfigurationError, SimulationError


def spec(seed=0, flow_id="flow", **overrides) -> FlowSpec:
    base = dict(duration=2.0, wmax=16.0)
    base.update(overrides)
    return FlowSpec(config=ConnectionConfig(**base), seed=seed, flow_id=flow_id)


class TestSimulateSpec:
    def test_returns_result_without_trace(self):
        result, trace = simulate_spec(spec(seed=1))
        assert result.throughput > 0.0
        assert trace is None

    def test_same_spec_same_bytes(self):
        first, _ = simulate_spec(spec(seed=4))
        second, _ = simulate_spec(spec(seed=4))
        assert first.log.data_sent == second.log.data_sent
        assert first.throughput == second.throughput


class TestBackendSelection:
    def test_for_workers_serial(self):
        assert isinstance(Executor.for_workers(1).backend, SerialBackend)
        assert isinstance(Executor.for_workers(0).backend, SerialBackend)

    def test_for_workers_pool(self):
        backend = Executor.for_workers(4).backend
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.workers == 4

    def test_pool_rejects_nonpositive_workers(self):
        with pytest.raises(ConfigurationError):
            ProcessPoolBackend(0)

    def test_pool_with_one_worker_runs_inline(self):
        # No pool is spun up, so results come back regardless of pickling.
        placement = ProcessPoolBackend(1)
        outcome = SupervisedBackend(placement).map(lambda x: x * 2, [1, 2, 3])
        assert outcome == [2, 4, 6]


class TestExecutorRun:
    def test_all_success_accounting(self):
        execution = Executor().run([spec(seed=i, flow_id=f"f/{i}") for i in range(3)])
        report = execution.report
        assert (report.attempted, report.succeeded, report.quarantined) == (3, 3, 0)
        assert report.retried == 0 and not report.failures
        assert all(outcome.ok for outcome in execution.outcomes)
        assert len(execution.results) == 3

    def test_report_accumulates_across_runs(self):
        report = CampaignReport()
        Executor().run([spec(seed=0)], report=report)
        Executor().run([spec(seed=1)], report=report)
        assert report.attempted == 2 and report.succeeded == 2

    def test_outcomes_keep_spec_order(self):
        execution = Executor().run(
            [spec(seed=i, flow_id=f"f/{i}") for i in range(4)]
        )
        assert [outcome.spec.flow_id for outcome in execution.outcomes] == [
            f"f/{i}" for i in range(4)
        ]


class TestRetryAndQuarantine:
    def _patch(self, monkeypatch, bad_seeds):
        real = executor_module.simulate_spec

        def breaking(sim_spec):
            if sim_spec.seed in bad_seeds:
                raise SimulationError("injected")
            return real(sim_spec)

        monkeypatch.setattr(executor_module, "simulate_spec", breaking)

    def test_transient_failure_retried_to_success(self, monkeypatch):
        base = 17
        self._patch(monkeypatch, {base})  # only attempt 0's seed fails
        execution = Executor().run([spec(seed=base, flow_id="flaky")])
        outcome = execution.outcomes[0]
        assert outcome.ok and outcome.attempts == 2
        assert [failure.attempt for failure in outcome.failures] == [0]
        report = execution.report
        assert (report.succeeded, report.retried, report.quarantined) == (1, 1, 0)
        # The retried attempt really ran under the derived seed.
        retry_seed = RetryPolicy().seed_for_attempt(base, 1)
        assert outcome.result is not None
        assert execution.report.failures[0].seed == base
        assert retry_seed != base

    def test_persistent_failure_quarantined(self, monkeypatch):
        policy = RetryPolicy()
        base = 23
        bad = {policy.seed_for_attempt(base, a) for a in range(policy.max_attempts)}
        self._patch(monkeypatch, bad)
        execution = Executor().run(
            [spec(seed=base, flow_id="broken"), spec(seed=1, flow_id="fine")]
        )
        broken, fine = execution.outcomes
        assert not broken.ok and broken.result is None
        assert broken.quarantine.flow_id == "broken"
        assert broken.quarantine.seed == base
        assert f"all {policy.max_attempts} attempts failed" in broken.quarantine.reason
        assert fine.ok  # per-flow isolation: the batch survives
        report = execution.report
        assert (report.attempted, report.succeeded, report.quarantined) == (2, 1, 1)
        assert len(report.failures) == policy.max_attempts

    def test_zero_retry_policy_fails_fast(self, monkeypatch):
        self._patch(monkeypatch, {5})
        execution = Executor(retry_policy=RetryPolicy(max_retries=0)).run(
            [spec(seed=5)]
        )
        outcome = execution.outcomes[0]
        assert not outcome.ok and outcome.attempts == 1
        assert execution.report.retried == 0


class TestAmbientWatchdog:
    def test_baked_into_specs_at_submit(self):
        ambient = Watchdog(max_events=10_000_000, wall_clock_s=600.0)
        with run_context(watchdog=ambient):
            execution = Executor().run([spec(seed=2)])
        assert execution.outcomes[0].spec.watchdog == ambient

    def test_explicit_watchdog_wins(self):
        mine = Watchdog(max_events=5_000_000)
        with run_context(watchdog=Watchdog(max_events=10_000_000)):
            execution = Executor().run([spec(seed=2).with_(watchdog=mine)])
        assert execution.outcomes[0].spec.watchdog == mine


def _double(x):
    # Module-level so the pool path can pickle it.
    return x * 2


class TestAutoBackend:
    def test_for_workers_auto_selects_auto_backend(self):
        backend = Executor.for_workers("auto").backend
        assert isinstance(backend, ProcessPoolBackend) and backend.auto

    def test_for_workers_rejects_other_strings(self):
        for workers in ("turbo", "lockstep", "fabric", "warp-speed"):
            with pytest.raises(ConfigurationError) as caught:
                Executor.for_workers(workers)
            assert str(caught.value) == (
                f"workers must be an integer or 'auto', got {workers!r}"
            )

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ConfigurationError):
            ProcessPoolBackend(0, auto=True)

    def test_small_batch_stays_serial_and_records_decision(self):
        backend = ProcessPoolBackend(auto=True)
        assert SupervisedBackend(backend).map(_double, [1, 2, 3]) == [2, 4, 6]
        decision = backend.last_decision
        assert decision["mode"] == "serial"
        assert decision["items"] == 3
        assert decision["cpu_count"] >= 1

    def test_cheap_batch_projects_serial(self, monkeypatch):
        # Pretend the host has cores to spare: a near-zero per-item
        # cost must still project serial, because the pool's spawn
        # overhead can never be amortised.
        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 8)
        backend = ProcessPoolBackend(auto=True)
        doubled = SupervisedBackend(backend).map(_double, list(range(50)))
        assert doubled == [x * 2 for x in range(50)]
        decision = backend.last_decision
        assert decision["mode"] == "serial"
        assert decision["projected_pool_s"] > decision["projected_serial_s"]

    def test_forced_pool_is_byte_identical_to_serial(self, monkeypatch):
        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(SupervisedBackend, "SPAWN_BASELINE_S", -1e9)
        monkeypatch.setattr(SupervisedBackend, "SPAWN_PER_WORKER_S", 0.0)
        specs = [spec(seed=i, flow_id=f"auto/{i}") for i in range(4)]
        serial = Executor().run(specs)
        backend = ProcessPoolBackend(2, auto=True)
        pooled = Executor(backend=backend).run(specs)
        assert backend.last_decision["mode"] == "pool"
        assert serial.report.to_json() == pooled.report.to_json()
        for left, right in zip(serial.outcomes, pooled.outcomes):
            import pickle

            assert pickle.dumps(left.result.log) == pickle.dumps(right.result.log)

    def test_auto_campaign_identical_to_serial(self):
        from repro.traces.generator import generate_dataset
        import pickle

        serial = generate_dataset(seed=2015, duration=5.0, flow_scale=0.02)
        auto = generate_dataset(
            seed=2015, duration=5.0, flow_scale=0.02, workers="auto"
        )
        assert serial.flow_count == auto.flow_count > 0
        assert [pickle.dumps(t) for t in serial.traces] == [
            pickle.dumps(t) for t in auto.traces
        ]
        assert serial.report.to_json() == auto.report.to_json()
