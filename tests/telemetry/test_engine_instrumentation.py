"""The engine's own event accounting: scheduled, fired, cancelled.

Every scheduled event ends in exactly one of three states — fired,
cancelled, or still live in the queue — so ``events_cancelled`` is
what the other two leave over, whichever loop ran and however it
stopped.
"""

import pytest

from repro.simulator.engine import Simulator
from repro.util.errors import BudgetExceededError


class TestEventAccounting:
    def test_scheduled_fired_cancelled(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("a"))
        handle = sim.schedule(2.0, lambda: fired.append("b"))
        sim.schedule_call(3.0, lambda payload, time: fired.append(payload), "c")
        assert sim.events_scheduled == 3
        handle.cancel()
        handle.cancel()  # idempotent: still one cancellation
        assert sim.events_cancelled == 1
        sim.run()
        assert fired == ["a", "c"]
        # The cancelled tombstone is discarded, not fired.
        assert (sim.events_processed, sim.events_cancelled) == (2, 1)

    def test_events_fired_reported_even_when_budget_raises(self):
        sim = Simulator()
        for delay in (1.0, 2.0, 3.0):
            sim.schedule(delay, lambda: None)
        sim.schedule(1.5, lambda: None).cancel()
        with pytest.raises(BudgetExceededError):
            sim.run(event_budget=2)
        # The tripping event is put back: live, neither fired nor
        # cancelled.
        assert sim.events_processed == 2
        assert sim.live_events == 1
        assert (sim.events_scheduled, sim.events_cancelled) == (4, 1)

    def test_put_back_at_the_until_horizon_stays_live(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(5.0, lambda: None)
        sim.schedule(6.0, lambda: None).cancel()
        sim.run(until=2.0)
        assert sim.now == 2.0
        assert (sim.events_processed, sim.live_events, sim.events_cancelled) == (1, 1, 1)
        sim.run()
        assert (sim.events_processed, sim.live_events, sim.events_cancelled) == (2, 0, 1)

    def test_same_event_order_as_plain_engine(self):
        # The guarded loop (any budget set) fires the same events in the
        # same order as the fast loop and keeps the same accounting.
        def drive(**budgets):
            sim = Simulator()
            order = []
            sim.schedule(2.0, lambda: order.append("late"))
            sim.schedule(1.0, lambda: order.append("early"))
            sim.schedule(1.0, lambda: order.append("tie-second"))
            sim.schedule(1.5, lambda: order.append("cancelled")).cancel()
            sim.run(until=10.0, **budgets)
            return (
                order, sim.now, sim.events_scheduled, sim.events_processed,
                sim.events_cancelled,
            )

        assert drive() == drive(event_budget=100, time_budget=20.0)
