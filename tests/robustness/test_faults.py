"""Fault injection: deterministic chaos that actually hurts the channel."""

import pytest

from repro.context import current_run_context, run_context
from repro.hsr.scenario import hsr_scenario, stationary_scenario
from repro.robustness.faults import FaultPlan, with_faults
from repro.simulator.connection import run_flow
from repro.util.errors import ConfigurationError


def run_built(built, seed):
    return run_flow(built.config, built.data_loss, built.ack_loss, seed=seed)


class TestFaultPlanConfig:
    def test_default_is_noop(self):
        assert FaultPlan().is_noop()

    def test_aggressive_is_not_noop(self):
        assert not FaultPlan.aggressive().is_noop()

    def test_rejects_negative_rates(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(deep_fade_rate=-0.1)
        with pytest.raises(ConfigurationError):
            FaultPlan(deep_fade_loss=1.5)
        with pytest.raises(ConfigurationError):
            FaultPlan.aggressive(0.0)

    def test_noop_apply_returns_built_unchanged(self):
        built = stationary_scenario().build(duration=10.0, seed=1)
        assert FaultPlan().apply(built, seed=1) is built


class TestFaultEffects:
    def test_ack_blackouts_raise_ack_loss(self):
        scenario = stationary_scenario()
        plan = FaultPlan(ack_blackout_rate=0.2, ack_blackout_mean_duration=1.5)
        clean = run_built(scenario.build(duration=40.0, seed=9), 9)
        faulted = run_built(plan.apply(scenario.build(duration=40.0, seed=9), 9), 9)
        assert faulted.log.ack_loss_rate > clean.log.ack_loss_rate

    def test_deep_fades_raise_data_loss(self):
        scenario = stationary_scenario()
        plan = FaultPlan(deep_fade_rate=0.2, deep_fade_mean_duration=2.0)
        clean = run_built(scenario.build(duration=40.0, seed=9), 9)
        faulted = run_built(plan.apply(scenario.build(duration=40.0, seed=9), 9), 9)
        assert faulted.log.data_loss_rate > clean.log.data_loss_rate

    def test_aggressive_plan_degrades_throughput(self):
        scenario = hsr_scenario()
        clean = run_built(scenario.build(duration=30.0, seed=4), 4)
        faulted = run_built(
            FaultPlan.aggressive(2.0).apply(scenario.build(duration=30.0, seed=4), 4),
            4,
        )
        assert faulted.log.delivered_payloads < clean.log.delivered_payloads

    def test_rtt_spikes_widen_jitter(self):
        built = stationary_scenario().build(duration=10.0, seed=2)
        faulted = FaultPlan(rtt_spike_sigma=0.4).apply(built, seed=2)
        assert faulted.config.jitter_sigma == pytest.approx(
            built.config.jitter_sigma + 0.4
        )

    def test_storm_windows_recorded_in_outages(self):
        built = stationary_scenario().build(duration=60.0, seed=3)
        assert built.outages == ()
        faulted = FaultPlan(
            handoff_storm_rate=0.2, handoff_storm_mean_outage=1.0
        ).apply(built, seed=3)
        assert len(faulted.outages) > 0
        assert list(faulted.outages) == sorted(faulted.outages)


class TestDeterminism:
    def test_same_seed_same_chaos(self):
        scenario = hsr_scenario()
        plan = FaultPlan.aggressive(1.5)
        results = [
            run_built(plan.apply(scenario.build(duration=20.0, seed=6), 6), 6)
            for _ in range(2)
        ]
        assert (
            results[0].log.delivered_payloads == results[1].log.delivered_payloads
        )
        assert results[0].log.data_loss_rate == results[1].log.data_loss_rate

    def test_different_seeds_different_chaos(self):
        scenario = hsr_scenario()
        plan = FaultPlan.aggressive(1.5)
        a = run_built(plan.apply(scenario.build(duration=20.0, seed=6), 6), 6)
        b = run_built(plan.apply(scenario.build(duration=20.0, seed=7), 7), 7)
        assert a.log.delivered_payloads != b.log.delivered_payloads

    def test_fault_stream_independent_of_base_channel(self):
        # Applying a plan must not change which random draws the base
        # scenario consumed: the clean part of the channel schedule is
        # identical with and without faults (fresh builds, same seed).
        built_a = hsr_scenario().build(duration=30.0, seed=8)
        built_b = FaultPlan(ack_blackout_rate=0.1).apply(
            hsr_scenario().build(duration=30.0, seed=8), 8
        )
        assert built_a.outages == built_b.outages  # no storms in this plan


class TestScenarioHook:
    def test_with_faults_wraps_every_build(self):
        scenario = with_faults(hsr_scenario(), FaultPlan(rtt_spike_sigma=0.3))
        built = scenario.build(duration=10.0, seed=1)
        plain = hsr_scenario().build(duration=10.0, seed=1)
        assert built.config.jitter_sigma == pytest.approx(
            plain.config.jitter_sigma + 0.3
        )

    def test_with_channel_hook_none_clears(self):
        scenario = with_faults(hsr_scenario(), FaultPlan(rtt_spike_sigma=0.3))
        cleared = scenario.with_channel_hook(None)
        assert cleared.channel_hook is None


class TestScope:
    def test_fault_scope_installs_and_restores(self):
        assert current_run_context().faults is None
        plan = FaultPlan.aggressive()
        with run_context(faults=plan):
            assert current_run_context().faults is plan
        assert current_run_context().faults is None
