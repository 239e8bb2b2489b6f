"""Watchdog guards: budgets terminate runaway simulations, never healthy ones."""

import pytest

from repro.context import current_run_context, run_context
from repro.experiments.registry import run_experiment
from repro.hsr.scenario import hsr_scenario
from repro.robustness.watchdog import Watchdog
from repro.simulator.connection import run_flow
from repro.simulator.engine import Simulator
from repro.util.errors import BudgetExceededError, ConfigurationError


def make_runaway(sim):
    """An event that reschedules itself forever without advancing time."""

    def resched():
        sim.schedule(0.0, resched)

    return resched


class TestEventBudget:
    def test_infinite_loop_terminates_at_exact_budget(self):
        sim = Simulator()
        sim.schedule(0.0, make_runaway(sim))
        with pytest.raises(BudgetExceededError) as excinfo:
            sim.run(event_budget=500)
        assert sim.events_processed == 500
        assert excinfo.value.kind == "events"
        assert excinfo.value.limit == 500

    def test_queue_left_intact_on_budget_trip(self):
        sim = Simulator()
        sim.schedule(0.0, make_runaway(sim))
        with pytest.raises(BudgetExceededError):
            sim.run(event_budget=10)
        assert sim.pending_events > 0  # the offending event is still queued

    def test_budget_not_tripped_by_finite_run(self):
        sim = Simulator()
        fired = []
        for i in range(50):
            sim.schedule(float(i), lambda i=i: fired.append(i))
        sim.run(event_budget=50)
        assert len(fired) == 50

    def test_cancelled_events_do_not_consume_budget(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i), lambda: None).cancel()
        sim.schedule(20.0, lambda: fired.append("live"))
        sim.run(event_budget=1)
        assert fired == ["live"]


class TestTimeBudget:
    def test_clock_escape_raises(self):
        sim = Simulator()

        def march():
            sim.schedule(1.0, march)

        sim.schedule(1.0, march)
        with pytest.raises(BudgetExceededError) as excinfo:
            sim.run(time_budget=100.0)
        assert excinfo.value.kind == "sim-time"
        assert sim.now <= 100.0

    def test_until_inside_budget_stops_gracefully(self):
        sim = Simulator()

        def march():
            sim.schedule(1.0, march)

        sim.schedule(1.0, march)
        sim.run(until=10.0, time_budget=100.0)
        assert sim.now == 10.0


class TestWallClock:
    def test_wall_deadline_in_the_past_raises(self):
        sim = Simulator()
        sim.schedule(0.0, make_runaway(sim))
        with pytest.raises(BudgetExceededError) as excinfo:
            sim.run(wall_deadline=0.0)  # monotonic() is always past 0
        assert excinfo.value.kind == "wall-clock"


class TestWatchdogConfig:
    def test_rejects_non_positive_budgets(self):
        with pytest.raises(ConfigurationError):
            Watchdog(max_events=0)
        with pytest.raises(ConfigurationError):
            Watchdog(wall_clock_s=-1.0)
        with pytest.raises(ConfigurationError):
            Watchdog(max_sim_time=0.0)

    def test_noop_watchdog_produces_no_kwargs(self):
        assert Watchdog().run_kwargs() == {}

    def test_default_has_generous_budgets(self):
        watchdog = Watchdog.default()
        assert watchdog.max_events >= 10_000_000
        assert watchdog.wall_clock_s >= 60.0


class TestScope:
    def test_scope_installs_and_restores(self):
        assert current_run_context().watchdog is None
        watchdog = Watchdog(max_events=100)
        with run_context(watchdog=watchdog):
            assert current_run_context().watchdog is watchdog
        assert current_run_context().watchdog is None

    def test_run_flow_picks_up_ambient_watchdog(self):
        built = hsr_scenario().build(duration=30.0, seed=11)
        with run_context(watchdog=Watchdog(max_events=50)):
            with pytest.raises(BudgetExceededError):
                run_flow(built.config, built.data_loss, built.ack_loss, seed=11)

    def test_explicit_watchdog_bounds_run_flow(self):
        built = hsr_scenario().build(duration=30.0, seed=11)
        with pytest.raises(BudgetExceededError):
            run_flow(
                built.config,
                built.data_loss,
                built.ack_loss,
                seed=11,
                watchdog=Watchdog(max_events=50),
            )


class TestDefaultBudgetHeadroom:
    def test_fig10_scale_run_never_trips_default_budget(self):
        # The satellite guarantee: real experiment workloads sit orders
        # of magnitude below the default budgets, so the watchdog only
        # ever fires on genuine runaways.
        with run_context(watchdog=Watchdog.default()):
            result = run_experiment("fig10", scale=0.25, seed=3)
        assert result.experiment_id == "fig10"

    def test_normal_flow_unaffected_by_default_watchdog(self):
        built = hsr_scenario().build(duration=20.0, seed=5)
        clean = run_flow(built.config, built.data_loss, built.ack_loss, seed=5)
        built = hsr_scenario().build(duration=20.0, seed=5)
        guarded = run_flow(
            built.config,
            built.data_loss,
            built.ack_loss,
            seed=5,
            watchdog=Watchdog.default(),
        )
        assert clean.log.delivered_payloads == guarded.log.delivered_payloads
