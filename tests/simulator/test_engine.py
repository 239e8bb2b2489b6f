"""Unit tests for the discrete-event engine."""

import pytest

from repro.simulator.engine import Simulator
from repro.util.errors import BudgetExceededError, SimulationError


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_simultaneous_events_fire_in_schedule_order(self):
        sim = Simulator()
        fired = []
        for name in "abc":
            sim.schedule(1.0, lambda n=name: fired.append(n))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]
        assert sim.now == 1.5

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(1.0, lambda: fired.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == [("outer", 1.0), ("inner", 2.0)]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("x"))
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()

    def test_cancel_one_of_many(self):
        sim = Simulator()
        fired = []
        keep = sim.schedule(1.0, lambda: fired.append("keep"))
        drop = sim.schedule(2.0, lambda: fired.append("drop"))
        drop.cancel()
        sim.run()
        assert fired == ["keep"]


class TestLiveEvents:
    def test_counts_only_uncancelled(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(4)]
        assert sim.live_events == 4
        assert sim.pending_events == 4
        handles[1].cancel()
        handles[2].cancel()
        assert sim.live_events == 2
        # Cancelled events stay queued until popped, so the raw queue
        # length does not shrink.
        assert sim.pending_events == 4

    def test_drains_to_zero_after_run(self):
        sim = Simulator()
        for i in range(3):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.live_events == 0
        assert sim.pending_events == 0

    def test_reported_in_budget_diagnostics(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        with pytest.raises(BudgetExceededError) as excinfo:
            sim.run(event_budget=2)
        # The tripped event is pushed back, so 3 of the 5 remain live.
        assert "3 live events pending" in str(excinfo.value)
        assert sim.live_events == 3


class TestRunControl:
    def test_until_horizon_stops_clock_exactly(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=3.0)
        assert fired == [1]
        assert sim.now == 3.0

    def test_later_events_survive_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=3.0)
        sim.run(until=10.0)
        assert fired == [5]

    def test_until_past_all_events_advances_clock(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run(until=9.0)
        assert sim.now == 9.0

    def test_max_events(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(float(i + 1), lambda i=i: fired.append(i))
        sim.run(max_events=2)
        assert fired == [0, 1]

    def test_stop_condition(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(float(i + 1), lambda i=i: fired.append(i))
        sim.run(stop_condition=lambda: len(fired) >= 3)
        assert fired == [0, 1, 2]

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(3):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 3

    def test_empty_run_is_noop(self):
        sim = Simulator()
        sim.run()
        assert sim.now == 0.0


class TestScheduleCall:
    """The payload fast path links use to deliver packets."""

    def test_action_receives_payload_and_fire_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_call(1.5, lambda pkt, time: seen.append((pkt, time)), "pkt")
        sim.run()
        assert seen == [("pkt", 1.5)]

    def test_none_is_a_legitimate_payload(self):
        sim = Simulator()
        seen = []
        sim.schedule_call(1.0, lambda pkt, time: seen.append(pkt), None)
        sim.run()
        assert seen == [None]

    def test_interleaves_deterministically_with_schedule(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("plain"))
        sim.schedule_call(1.0, lambda pkt, time: fired.append(pkt), "payload")
        sim.schedule(1.0, lambda: fired.append("last"))
        sim.run()
        assert fired == ["plain", "payload", "last"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_call(-0.1, lambda pkt, time: None, "x")

    def test_counts_as_live_and_processed(self):
        sim = Simulator()
        sim.schedule_call(1.0, lambda pkt, time: None, "x")
        assert sim.live_events == 1
        sim.run()
        assert sim.live_events == 0
        assert sim.events_processed == 1

    def test_survives_until_horizon(self):
        sim = Simulator()
        seen = []
        sim.schedule_call(2.0, lambda pkt, time: seen.append(pkt), "late")
        sim.run(until=1.0)
        assert seen == [] and sim.now == 1.0
        sim.run()
        assert seen == ["late"] and sim.now == 2.0

    def test_dispatched_by_guarded_run(self):
        # Budgets force the guarded loop; payload events must still
        # receive (payload, fire_time).
        sim = Simulator()
        seen = []
        for index in range(3):
            sim.schedule_call(float(index + 1), lambda pkt, time: seen.append((pkt, time)), index)
        sim.run(max_events=2)
        assert seen == [(0, 1.0), (1, 2.0)]
        sim.run()
        assert seen[-1] == (2, 3.0)


class TestScheduleCallsAt:
    """The batch scheduler burst delivery rides on."""

    def test_each_payload_fires_at_its_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_calls_at(
            [1.0, 2.0, 3.0],
            lambda pkt, time: seen.append((pkt, time)),
            ["a", "b", "c"],
        )
        sim.run()
        assert seen == [("a", 1.0), ("b", 2.0), ("c", 3.0)]

    def test_ties_fire_in_list_order(self):
        # Batch entries get consecutive sequence numbers in list order,
        # so same-time events keep their submission order — the burst
        # path's equivalence to per-packet scheduling depends on it.
        sim = Simulator()
        seen = []
        sim.schedule_calls_at(
            [1.0, 1.0, 1.0], lambda pkt, time: seen.append(pkt), [0, 1, 2]
        )
        sim.run()
        assert seen == [0, 1, 2]

    def test_interleaves_with_scalar_scheduling(self):
        # A batch submitted between two scalar calls slots between them
        # exactly as three scalar schedule_call invocations would.
        batched = Simulator()
        fired_batched = []
        batched.schedule_call(1.0, lambda pkt, t: fired_batched.append(pkt), "first")
        batched.schedule_calls_at(
            [1.0, 1.0], lambda pkt, t: fired_batched.append(pkt), ["x", "y"]
        )
        batched.schedule_call(1.0, lambda pkt, t: fired_batched.append(pkt), "last")

        scalar = Simulator()
        fired_scalar = []
        for payload in ("first", "x", "y", "last"):
            scalar.schedule_call(1.0, lambda pkt, t: fired_scalar.append(pkt), payload)

        batched.run()
        scalar.run()
        assert fired_batched == fired_scalar

    def test_length_mismatch_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_calls_at([1.0, 2.0], lambda pkt, time: None, ["only"])

    def test_past_time_rejected_without_partial_batch(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.now == 1.0
        with pytest.raises(SimulationError):
            sim.schedule_calls_at(
                [2.0, 0.5], lambda pkt, time: None, ["ok", "stale"]
            )
        # The valid head was already pushed; it must still fire once.
        fired = []
        sim.schedule_calls_at([3.0], lambda pkt, time: fired.append(pkt), ["tail"])
        sim.run()
        assert sim.events_processed == 3

    def test_empty_batch_is_a_noop(self):
        sim = Simulator()
        sim.schedule_calls_at([], lambda pkt, time: None, [])
        assert sim.live_events == 0

    def test_instrumented_simulator_counts_batch(self):
        # The engine's own event accounting counts every batched push.
        sim = Simulator()
        sim.schedule_calls_at(
            [1.0, 2.0, 3.0], lambda pkt, time: None, ["a", "b", "c"]
        )
        assert sim.events_scheduled == 3
        sim.run()
        assert (sim.events_processed, sim.events_cancelled) == (3, 0)
