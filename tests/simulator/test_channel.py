"""Unit tests for loss models and the Link."""

import pytest

from repro.simulator.channel import (
    BernoulliLoss,
    CompositeLoss,
    GilbertElliottLoss,
    HandoffLoss,
    Link,
    NoLoss,
    RoundCorrelatedLoss,
    TraceDrivenLoss,
)
from repro.simulator.engine import Simulator
from repro.util.errors import ConfigurationError
from repro.util.rng import RngStream


def rng() -> RngStream:
    return RngStream(1234)


class TestBernoulliLoss:
    def test_zero_rate_never_loses(self):
        model = BernoulliLoss(0.0, rng())
        assert not any(model.is_lost(float(i)) for i in range(1000))

    def test_rate_converges(self):
        model = BernoulliLoss(0.2, rng())
        n = 20000
        losses = sum(model.is_lost(float(i)) for i in range(n))
        assert abs(losses / n - 0.2) < 0.02

    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigurationError):
            BernoulliLoss(1.0, rng())
        with pytest.raises(ConfigurationError):
            BernoulliLoss(-0.1, rng())


class TestGilbertElliott:
    def test_stationary_loss_rate_formula(self):
        model = GilbertElliottLoss(
            rng(), mean_good_duration=9.0, mean_bad_duration=1.0,
            loss_good=0.0, loss_bad=1.0,
        )
        assert model.stationary_loss_rate == pytest.approx(0.1)

    def test_empirical_rate_near_stationary(self):
        model = GilbertElliottLoss(
            rng(), mean_good_duration=5.0, mean_bad_duration=0.5,
            loss_good=0.001, loss_bad=1.0,
        )
        n = 50000
        dt = 0.01
        losses = sum(model.is_lost(i * dt) for i in range(n))
        assert losses / n == pytest.approx(model.stationary_loss_rate, abs=0.03)

    def test_losses_are_bursty(self):
        # Consecutive-loss run lengths should far exceed the Bernoulli
        # expectation at the same average rate.
        model = GilbertElliottLoss(
            rng(), mean_good_duration=10.0, mean_bad_duration=0.5,
        )
        dt = 0.01
        outcomes = [model.is_lost(i * dt) for i in range(100000)]
        runs, current = [], 0
        for lost in outcomes:
            if lost:
                current += 1
            elif current:
                runs.append(current)
                current = 0
        assert runs, "expected at least one burst"
        mean_run = sum(runs) / len(runs)
        # Bernoulli at the same rate (~4.8%) would have mean run ~1.05.
        assert mean_run > 3.0

    def test_time_must_not_go_backwards_is_tolerated_forward_only(self):
        model = GilbertElliottLoss(rng(), 1.0, 1.0)
        model.is_lost(0.0)
        model.is_lost(10.0)  # jumping forward over several sojourns is fine

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            GilbertElliottLoss(rng(), 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            GilbertElliottLoss(rng(), 1.0, 1.0, loss_good=1.0)


class TestHandoffLoss:
    def test_total_loss_inside_outage(self):
        model = HandoffLoss(rng(), outages=[(1.0, 2.0)], base_rate=0.0)
        assert model.is_lost(1.5)
        assert not model.is_lost(2.5)

    def test_base_rate_outside_outage(self):
        model = HandoffLoss(rng(), outages=[(100.0, 101.0)], base_rate=0.3)
        n = 10000
        losses = sum(model.is_lost(i * 0.001) for i in range(n))
        assert abs(losses / n - 0.3) < 0.03

    def test_in_outage_queries_monotone_time(self):
        model = HandoffLoss(rng(), outages=[(1.0, 2.0), (3.0, 4.0)])
        assert not model.in_outage(0.5)
        assert model.in_outage(1.5)
        assert not model.in_outage(2.5)
        assert model.in_outage(3.5)
        assert not model.in_outage(4.5)

    def test_rejects_unsorted_outages(self):
        with pytest.raises(ConfigurationError):
            HandoffLoss(rng(), outages=[(3.0, 4.0), (1.0, 2.0)])

    def test_rejects_empty_interval(self):
        with pytest.raises(ConfigurationError):
            HandoffLoss(rng(), outages=[(2.0, 2.0)])


class TestTraceDrivenLoss:
    def test_scripted_outcomes(self):
        model = TraceDrivenLoss([1, 3])
        outcomes = [model.is_lost(0.0) for _ in range(5)]
        assert outcomes == [False, True, False, True, False]

    def test_beyond_script_survives(self):
        model = TraceDrivenLoss([0])
        model.is_lost(0.0)
        assert not any(model.is_lost(0.0) for _ in range(10))

    def test_counts_transmissions(self):
        model = TraceDrivenLoss([])
        for _ in range(7):
            model.is_lost(0.0)
        assert model.transmissions_seen == 7


class TestCompositeLoss:
    def test_any_component_loses(self):
        model = CompositeLoss([TraceDrivenLoss([0]), TraceDrivenLoss([1])])
        assert model.is_lost(0.0)  # first component
        assert model.is_lost(0.0)  # second component
        assert not model.is_lost(0.0)

    def test_all_components_advance(self):
        a, b = TraceDrivenLoss([0]), TraceDrivenLoss([0])
        model = CompositeLoss([a, b])
        model.is_lost(0.0)
        assert a.transmissions_seen == b.transmissions_seen == 1

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            CompositeLoss([])


class TestLink:
    def test_delivers_after_delay(self):
        sim = Simulator()
        arrivals = []
        link = Link(sim, delay=0.05, deliver=lambda pkt, t: arrivals.append((pkt, t)))
        sim.schedule(1.0, lambda: link.send("hello"))
        sim.run()
        assert arrivals == [("hello", pytest.approx(1.05))]

    def test_loss_invokes_on_drop(self):
        sim = Simulator()
        arrivals, drops = [], []
        link = Link(
            sim, delay=0.05, loss_model=TraceDrivenLoss([0]),
            deliver=lambda pkt, t: arrivals.append(pkt),
            on_drop=lambda pkt, t: drops.append((pkt, t)),
        )
        link.send("lost")
        link.send("ok")
        sim.run()
        assert arrivals == ["ok"]
        assert drops == [("lost", 0.0)]

    def test_counters_and_loss_fraction(self):
        sim = Simulator()
        link = Link(sim, delay=0.01, loss_model=TraceDrivenLoss([0, 1]),
                    deliver=lambda pkt, t: None)
        for _ in range(4):
            link.send("x")
        assert link.sent == 4
        assert link.dropped == 2
        assert link.loss_fraction == pytest.approx(0.5)

    def test_jitter_added_to_delay(self):
        sim = Simulator()
        arrivals = []
        link = Link(sim, delay=0.05, jitter=lambda: 0.02,
                    deliver=lambda pkt, t: arrivals.append(t))
        link.send("x")
        sim.run()
        assert arrivals == [pytest.approx(0.07)]

    def test_negative_jitter_clipped(self):
        sim = Simulator()
        arrivals = []
        link = Link(sim, delay=0.05, jitter=lambda: -1.0,
                    deliver=lambda pkt, t: arrivals.append(t))
        link.send("x")
        sim.run()
        assert arrivals == [pytest.approx(0.05)]

    def test_rejects_nonpositive_delay(self):
        with pytest.raises(ConfigurationError):
            Link(Simulator(), delay=0.0)

    def test_missing_deliver_rejected_at_construction(self):
        # The configuration error must surface when the link is built,
        # not when the first surviving packet tries to arrive.
        with pytest.raises(ConfigurationError):
            Link(Simulator(), delay=0.01)

    def test_fifo_ordering_without_jitter(self):
        sim = Simulator()
        arrivals = []
        link = Link(sim, delay=0.05, deliver=lambda pkt, t: arrivals.append(pkt))
        link.send(1)
        sim.schedule(0.001, lambda: link.send(2))
        sim.run()
        assert arrivals == [1, 2]


class TestGilbertElliottBoundaries:
    """Edge semantics of the continuous-time state advance."""

    def _model(self, seed=77, **kwargs):
        defaults = dict(
            mean_good_duration=2.0, mean_bad_duration=0.5,
            loss_good=0.0, loss_bad=1.0,
        )
        defaults.update(kwargs)
        return GilbertElliottLoss(RngStream(seed, "ge"), **defaults)

    def test_expiry_instant_belongs_to_next_state(self):
        # The sojourn interval is half-open: a packet sent exactly when
        # the state expires sees the *new* state, matching the `>=`
        # guard in is_lost.
        model = self._model()
        expires = model._state_expires
        assert not model._in_bad_state
        model._advance_to(expires)
        assert model._in_bad_state
        assert model._state_expires > expires

    def test_advance_skips_multiple_epochs(self):
        # A long quiet gap (an idle connection) must land in the state
        # that continuous time dictates, not merely the next one.
        model = self._model()
        horizon = model._state_expires + 50.0
        model._advance_to(horizon)
        assert model._state_expires > horizon


class TestHandoffBoundaries:
    """Half-open outage windows and cursor behaviour at the edges."""

    def test_outage_start_is_inclusive(self):
        model = HandoffLoss(rng(), outages=[(1.0, 2.0)])
        assert model.in_outage(1.0)

    def test_outage_end_is_exclusive(self):
        # A packet sent exactly when the outage ends is already clear:
        # the window is [start, end), mirroring the state-expiry rule.
        model = HandoffLoss(rng(), outages=[(1.0, 2.0)])
        assert not model.in_outage(2.0)

    def test_edge_exactly_at_now_loses_then_survives(self):
        model = HandoffLoss(rng(), outages=[(1.0, 2.0)], base_rate=0.0)
        assert model.is_lost(1.0)
        assert not model.is_lost(2.0)

    def test_adjacent_outages_have_no_gap(self):
        # (1,2) and (2,3) touching: t=2.0 belongs to the second window.
        model = HandoffLoss(rng(), outages=[(1.0, 2.0), (2.0, 3.0)])
        assert model.in_outage(1.999999)
        assert model.in_outage(2.0)
        assert not model.in_outage(3.0)

    def test_cursor_past_last_outage(self):
        model = HandoffLoss(rng(), outages=[(1.0, 2.0)])
        assert not model.in_outage(10.0)
        assert not model.in_outage(11.0)
        assert model._cursor_outage == 1


class TestInlinedDrawsMatchScalarReplica:
    """The hot models read their uniform block inline; each decision
    must still be the one the scalar stream calls would give."""

    def test_handoff_loss(self):
        outages = [(0.05, 0.3), (0.3, 0.31), (0.9, 1.1)]
        model = HandoffLoss(
            RngStream(5, "h"), outages, base_rate=0.05, loss_during=0.9
        )
        replica = HandoffLoss(RngStream(0), outages)  # in_outage only
        stream = RngStream(5, "h")
        for step in range(400):
            now = step * 0.003
            rate = 0.9 if replica.in_outage(now) else 0.05
            assert model.is_lost(now) == stream.bernoulli(rate)

    def test_handoff_certain_rates_draw_nothing(self):
        model = HandoffLoss(RngStream(8, "h"), [(1.0, 2.0)], loss_during=1.0)
        assert [model.is_lost(t) for t in (0.5, 1.0, 1.5, 2.0)] == [
            False, True, True, False,
        ]
        assert model._cursor == 0

    def test_round_correlated_loss(self):
        model = RoundCorrelatedLoss(
            RngStream(6, "r"), trigger_rate=0.08, round_duration=0.2
        )
        stream = RngStream(6, "r")
        burst_until = -float("inf")
        for step in range(600):
            now = step * 0.01
            if now < burst_until:
                expected = True
            elif stream.bernoulli(0.08):
                burst_until = now + 0.2
                expected = True
            else:
                expected = False
            assert model.is_lost(now) == expected
