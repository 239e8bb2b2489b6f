"""Window state-machine tests for the CC zoo senders.

Each variant is exercised two ways: hand-driven (a sender wired to a
no-op link, fed ACKs directly, so window arithmetic is assertable
exactly) and behaviourally (whole flows under seeded loss, checking the
variant-defining shape: CUBIC's convex probe, Compound's dwnd collapse,
Relentless's proportional decrease, BBR's loss tolerance).
"""

import pytest

from repro.simulator import (
    BbrSender,
    BernoulliLoss,
    CompoundSender,
    ConnectionConfig,
    CubicSender,
    NoLoss,
    RelentlessSender,
    Simulator,
    TraceDrivenLoss,
    run_flow,
)
from repro.simulator.channel import Link
from repro.simulator.metrics import FlowLog
from repro.simulator.packet import AckSegment
from repro.simulator.sender_base import (
    _CONGESTION_AVOIDANCE,
    _FAST_RECOVERY,
    _MIN_SSTHRESH,
)
from repro.util.errors import ConfigurationError
from repro.util.rng import RngStream


def config(**overrides) -> ConnectionConfig:
    base = dict(duration=30.0, wmax=32.0)
    base.update(overrides)
    return ConnectionConfig(**base)


def _hand_sender(sender_cls, initial_cwnd=8.0, wmax=32.0, **kwargs):
    """A sender wired to a swallow-everything link, pumped once."""
    sim = Simulator()
    log = FlowLog()
    link = Link(
        sim, delay=0.03, loss_model=NoLoss(),
        deliver=lambda segment, time: None,
    )
    sender = sender_cls(
        sim, link, log, wmax=wmax, initial_cwnd=initial_cwnd, **kwargs
    )
    sender.start()
    sim.run(until=0.1)
    return sim, sender, log


def _deliver_ack(sim, sender, log, ack_seq):
    tid = len(log.acks)  # a transmission id is its row in the log
    log.record_ack_send(tid, ack_seq, sim.now)
    sender.on_ack(
        AckSegment(ack_seq=ack_seq, transmission_id=tid, send_time=sim.now),
        sim.now,
    )


def _force_fast_recovery(sim, sender, log):
    for _ in range(3):
        _deliver_ack(sim, sender, log, ack_seq=0)
    assert sender.phase == _FAST_RECOVERY


def _bernoulli_flow(variant, rate=0.01, duration=40.0, seed=5, **kwargs):
    rng = RngStream(seed, variant)
    return run_flow(
        config(duration=duration),
        data_loss=BernoulliLoss(rate, rng.spawn("data")),
        ack_loss=NoLoss(),
        seed=seed,
        variant=variant,
        **kwargs,
    )


class TestCubicWindowLaw:
    def test_curve_is_convex_past_k_and_hits_plateau_at_k(self):
        _, sender, _ = _hand_sender(CubicSender)
        sender._w_last_max = 24.0
        sender._k = 2.0
        # W(K) = W_max exactly; second differences positive (convex)
        # beyond the plateau.
        assert sender._cubic_target(2.0) == pytest.approx(24.0)
        samples = [sender._cubic_target(2.0 + 0.5 * i) for i in range(5)]
        diffs = [b - a for a, b in zip(samples, samples[1:])]
        assert all(d2 > d1 for d1, d2 in zip(diffs, diffs[1:]))

    def test_concave_approach_below_plateau(self):
        _, sender, _ = _hand_sender(CubicSender)
        sender._w_last_max = 24.0
        sender._k = 2.0
        samples = [sender._cubic_target(0.5 * i) for i in range(4)]
        diffs = [b - a for a, b in zip(samples, samples[1:])]
        # Still growing, but slowing down on the way to the plateau.
        assert all(d > 0 for d in diffs)
        assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))

    def test_loss_takes_beta_decrease_and_records_plateau(self):
        sim, sender, log = _hand_sender(CubicSender, initial_cwnd=20.0)
        sender.ssthresh = 4.0  # force congestion avoidance
        sender._set_phase(_CONGESTION_AVOIDANCE)
        _force_fast_recovery(sim, sender, log)
        assert sender.ssthresh == pytest.approx(20.0 * 0.7)
        assert sender._w_last_max == pytest.approx(20.0)
        assert sender._epoch_start == -1.0  # epoch closed, reopens on ACK

    def test_fast_convergence_releases_ceiling_early(self):
        sim, sender, log = _hand_sender(CubicSender, initial_cwnd=10.0)
        sender._w_last_max = 24.0  # losing again below the old plateau
        sender.ssthresh = 4.0
        sender._set_phase(_CONGESTION_AVOIDANCE)
        _force_fast_recovery(sim, sender, log)
        assert sender._w_last_max == pytest.approx(10.0 * (2.0 - 0.7) / 2.0)

    def test_tcp_friendly_region_floors_growth(self):
        _, sender, _ = _hand_sender(CubicSender, initial_cwnd=8.0)
        sender._w_last_max = 100.0  # deep concave region: cubic term tiny
        sender._epoch_start = 0.0
        sender._k = 50.0
        sender._w_est = 12.0  # AIMD estimate already ahead
        grown = sender._ca_window(1)
        assert grown >= 12.0

    def test_bad_params_rejected(self):
        with pytest.raises(ConfigurationError):
            _hand_sender(CubicSender, beta=1.5)


class TestCompoundDualWindow:
    def test_dwnd_grows_while_queue_empty(self):
        # The binomial increase alpha*win^k - 1 is positive only past
        # win = (1/alpha)^(1/k) = 16; start above it.
        sim, sender, log = _hand_sender(
            CompoundSender, initial_cwnd=24.0, wmax=64.0
        )
        sender.ssthresh = 4.0
        sender._set_phase(_CONGESTION_AVOIDANCE)
        sender._base_rtt = 0.1
        sender._last_rtt = 0.1  # diff = 0 < gamma
        sender._round_end = 0
        before = sender.dwnd
        _deliver_ack(sim, sender, log, ack_seq=2)
        assert sender.dwnd > before

    def test_dwnd_drains_on_queue_buildup(self):
        sim, sender, log = _hand_sender(
            CompoundSender, initial_cwnd=8.0, wmax=64.0, gamma=2.0
        )
        sender.ssthresh = 4.0
        sender._set_phase(_CONGESTION_AVOIDANCE)
        sender.dwnd = 10.0
        sender._base_rtt = 0.05
        sender._last_rtt = 0.5  # diff = win * 0.9 >> gamma
        sender._round_end = 0
        _deliver_ack(sim, sender, log, ack_seq=2)
        assert sender.dwnd < 10.0

    def test_send_window_is_compound_and_clamped(self):
        _, sender, _ = _hand_sender(CompoundSender, initial_cwnd=8.0)
        sender.dwnd = 10.0
        assert sender._send_window() == 18.0
        sender.dwnd = 100.0
        assert sender._send_window() == 32.0  # wmax clamp

    def test_loss_collapses_dwnd_to_compound_share(self):
        sim, sender, log = _hand_sender(CompoundSender, initial_cwnd=16.0)
        sender.ssthresh = 4.0
        sender._set_phase(_CONGESTION_AVOIDANCE)
        sender.dwnd = 8.0
        _force_fast_recovery(sim, sender, log)
        # win = 24; cwnd halves to 8; dwnd = win*(1-beta) - ssthresh = 4.
        assert sender.ssthresh == 8.0
        assert sender.dwnd == pytest.approx(24.0 * 0.5 - 8.0)

    def test_rto_discards_delay_window(self):
        _, sender, _ = _hand_sender(CompoundSender, initial_cwnd=16.0)
        sender.dwnd = 8.0
        sender._on_timeout_collapse()
        assert sender.dwnd == 0.0


class TestRelentlessDecrease:
    def test_loss_decrements_instead_of_halving(self):
        sim, sender, log = _hand_sender(RelentlessSender, initial_cwnd=8.0)
        _force_fast_recovery(sim, sender, log)
        assert sender.ssthresh == 7.0  # 8 - 1, not 8/2
        assert sender.cwnd == 10.0  # ssthresh + 3 dupack inflation

    def test_each_partial_ack_charges_another_decrement(self):
        sim, sender, log = _hand_sender(RelentlessSender, initial_cwnd=8.0)
        _force_fast_recovery(sim, sender, log)
        _deliver_ack(sim, sender, log, ack_seq=3)  # partial ACK
        assert sender.phase == _FAST_RECOVERY
        assert sender.ssthresh == 6.0

    def test_decrement_floor_is_min_ssthresh(self):
        sim, sender, log = _hand_sender(
            RelentlessSender, initial_cwnd=2.5, decrement=5.0
        )
        _force_fast_recovery(sim, sender, log)
        assert sender.ssthresh == _MIN_SSTHRESH

    def test_beats_reno_under_random_loss(self):
        reno = _bernoulli_flow("reno")
        relentless = _bernoulli_flow("relentless")
        assert relentless.throughput > reno.throughput


class TestBbrStateMachine:
    def test_starts_in_startup_with_no_model(self):
        _, sender, _ = _hand_sender(BbrSender)
        assert sender.mode == "startup"
        assert sender._model_cwnd() is None

    def test_min_rtt_tracks_minimum_until_expiry(self):
        _, sender, _ = _hand_sender(BbrSender, probe_rtt_interval=10.0)
        sender._on_rtt_sample(0.2, now=1.0)
        sender._on_rtt_sample(0.1, now=2.0)
        sender._on_rtt_sample(0.3, now=3.0)
        assert sender._min_rtt == 0.1
        sender._on_rtt_sample(0.3, now=13.0)  # stale sample expired
        assert sender._min_rtt == 0.3

    def test_model_cwnd_clamped_between_floor_and_wmax(self):
        _, sender, _ = _hand_sender(BbrSender, wmax=32.0)
        sender._min_rtt = 0.1
        sender._max_bw = 1.0  # tiny BDP -> floor
        assert sender._model_cwnd() == 4.0
        sender._max_bw = 10_000.0  # huge BDP -> wmax
        assert sender._model_cwnd() == 32.0

    def test_startup_exits_after_three_flat_rounds(self):
        _, sender, _ = _hand_sender(BbrSender)
        sender._round_max_bw = 100.0
        sender._on_round_end()
        assert sender.mode == "startup"
        for _ in range(3):  # no further growth
            sender._round_max_bw = 100.0
            sender._on_round_end()
        assert sender.mode == "drain"

    def test_probe_rtt_dips_then_reenters_probe_bw(self):
        _, sender, _ = _hand_sender(BbrSender, probe_rtt_duration=0.2)
        sender._min_rtt = 0.1
        sender._max_bw = 500.0
        sender._enter_probe_bw(now=0.0)
        sender._min_rtt_stamp = 0.0
        sender._advance_mode(now=11.0)  # min_rtt stale
        assert sender.mode == "probe_rtt"
        assert sender._model_cwnd() == 4.0  # the dip
        sender._advance_mode(now=11.3)  # dip duration elapsed
        assert sender.mode == "probe_bw"

    def test_loss_does_not_halve_the_model(self):
        _, sender, _ = _hand_sender(BbrSender)
        sender._min_rtt = 0.1
        sender._max_bw = 200.0
        sender._enter_probe_bw(now=0.0)
        model = sender._model_cwnd()
        sender._on_loss_event()
        assert sender.cwnd == pytest.approx(model)

    def test_beats_reno_under_random_loss(self):
        reno = _bernoulli_flow("reno")
        bbr = _bernoulli_flow("bbr")
        assert bbr.throughput > 1.5 * reno.throughput


class TestZooBehaviour:
    @pytest.mark.parametrize(
        "variant", ["cubic", "bbr", "compound", "relentless"]
    )
    def test_clean_channel_completes_in_order(self, variant):
        result = run_flow(
            config(duration=10.0), NoLoss(), NoLoss(), seed=3, variant=variant
        )
        assert result.throughput > 0.0
        delivered = [
            r.seq for r in result.log.data_packets if r.arrival_time is not None
        ]
        assert sorted(set(delivered)) == list(range(len(set(delivered))))

    @pytest.mark.parametrize(
        "variant", ["cubic", "bbr", "compound", "relentless"]
    )
    def test_recovers_from_isolated_loss(self, variant):
        result = run_flow(
            config(b=1, duration=20.0),
            data_loss=TraceDrivenLoss([60]),
            ack_loss=NoLoss(),
            seed=2,
            variant=variant,
        )
        retx = [r for r in result.log.data_packets if r.is_retransmission]
        assert len(retx) >= 1
        delivered = {
            r.seq for r in result.log.data_packets if r.arrival_time is not None
        }
        assert delivered == set(range(len(delivered)))

    def test_cubic_competitive_with_reno_between_losses(self):
        # CUBIC's convex probe refills the window at least as fast as
        # Reno's one-per-RTT; the channels are seeded per-variant, so
        # allow a small sampling margin.
        cubic = _bernoulli_flow("cubic", rate=0.002, duration=60.0)
        reno = _bernoulli_flow("reno", rate=0.002, duration=60.0)
        assert cubic.throughput >= 0.9 * reno.throughput
