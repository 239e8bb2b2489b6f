"""Behavioural tests for the NewReno sender variant."""

import pytest

from repro.simulator import (
    BernoulliLoss,
    ConnectionConfig,
    NewRenoSender,
    NoLoss,
    RoundCorrelatedLoss,
    Simulator,
    TraceDrivenLoss,
    run_flow,
)
from repro.simulator.channel import Link
from repro.simulator.metrics import FlowLog
from repro.simulator.packet import AckSegment
from repro.simulator.reno import _CONGESTION_AVOIDANCE, _FAST_RECOVERY
from repro.util.errors import ConfigurationError
from repro.util.rng import RngStream


def config(**overrides) -> ConnectionConfig:
    base = dict(duration=30.0, wmax=32.0)
    base.update(overrides)
    return ConnectionConfig(**base)


class TestVariantSelection:
    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigurationError):
            run_flow(config(duration=1.0), NoLoss(), NoLoss(), variant="vegas")

    def test_lossless_behaviour_identical(self):
        reno = run_flow(config(duration=10.0), NoLoss(), NoLoss(), seed=1)
        newreno = run_flow(
            config(duration=10.0), NoLoss(), NoLoss(), seed=1, variant="newreno"
        )
        assert reno.throughput == newreno.throughput
        assert reno.log.data_sent == newreno.log.data_sent


def _fast_recovery_sender():
    """A NewReno sender driven by hand into fast recovery.

    The initial pump sends seq 0..7 (cwnd=8); three duplicate ACKs for
    seq 0 then trigger fast retransmit: ssthresh=4, cwnd=7, recovery
    point at snd_max=8.
    """
    sim = Simulator()
    log = FlowLog()
    link = Link(
        sim, delay=0.03, loss_model=NoLoss(),
        deliver=lambda segment, time: None,  # ACKs are injected by hand
    )
    sender = NewRenoSender(sim, link, log, wmax=32.0, initial_cwnd=8.0)
    sender.start()
    sim.run(until=0.1)
    for _ in range(3):
        _deliver_ack(sim, sender, log, ack_seq=0)
    assert sender.phase == _FAST_RECOVERY
    assert sender.cwnd == 7.0
    return sim, sender, log


def _deliver_ack(sim, sender, log, ack_seq):
    tid = len(log.acks)  # a transmission id is its row in the log
    log.record_ack_send(tid, ack_seq, sim.now)
    sender.on_ack(
        AckSegment(ack_seq=ack_seq, transmission_id=tid, send_time=sim.now), sim.now
    )


class TestPartialAckMechanics:
    def test_partial_ack_deflates_window(self):
        # RFC 6582: deflate by the amount newly acknowledged, plus one
        # for the retransmission sent — 7 - 3 + 1 = 5 here.
        sim, sender, log = _fast_recovery_sender()
        _deliver_ack(sim, sender, log, ack_seq=3)
        assert sender.cwnd == 5.0
        assert sender.ssthresh == 4.0  # untouched until recovery ends

    def test_partial_ack_stays_in_fast_recovery(self):
        sim, sender, log = _fast_recovery_sender()
        _deliver_ack(sim, sender, log, ack_seq=3)
        assert sender.phase == _FAST_RECOVERY
        # The next hole (the new snd_una) was retransmitted immediately.
        hole = log.data_packets[-1]
        assert hole.seq == 3 and hole.is_retransmission
        assert not hole.in_timeout_recovery
        # An ACK past the recovery point finally exits to congestion
        # avoidance with the classic deflation to ssthresh.
        _deliver_ack(sim, sender, log, ack_seq=8)
        assert sender.phase == _CONGESTION_AVOIDANCE
        assert sender.cwnd == 4.0

    def test_partial_ack_restarts_rto_timer(self):
        # Each partial ACK proves the connection is alive, so the
        # retransmission timer must be re-armed, not left running.
        sim, sender, log = _fast_recovery_sender()
        before = sender._rto_timer
        assert before is not None
        _deliver_ack(sim, sender, log, ack_seq=3)
        after = sender._rto_timer
        assert after is not None and after is not before
        assert before.cancelled and not after.cancelled


class TestPartialAckRecovery:
    def test_multi_loss_window_repaired_without_timeout(self):
        # Two separated losses inside one window: classic Reno usually
        # times out on the second hole; NewReno's partial-ACK
        # retransmission repairs both in one fast recovery.
        losses = [60, 64]
        newreno = run_flow(
            config(b=1, duration=20.0),
            data_loss=TraceDrivenLoss(losses),
            ack_loss=NoLoss(),
            seed=2,
            variant="newreno",
        )
        assert len(newreno.log.timeouts) == 0
        retx = [r for r in newreno.log.data_packets if r.is_retransmission]
        assert len(retx) >= 2  # both holes retransmitted

    def test_fewer_timeouts_than_reno_on_correlated_loss(self):
        rng_a, rng_b = RngStream(5, "a"), RngStream(5, "b")
        cfg = config(duration=90.0)
        reno = run_flow(
            cfg,
            RoundCorrelatedLoss(rng_a.spawn("d"), 0.002, cfg.base_rtt),
            NoLoss(), seed=5,
        )
        newreno = run_flow(
            cfg,
            RoundCorrelatedLoss(rng_b.spawn("d"), 0.002, cfg.base_rtt),
            NoLoss(), seed=5, variant="newreno",
        )
        assert len(newreno.log.timeouts) <= len(reno.log.timeouts)

    def test_throughput_not_worse_than_reno(self):
        rng = RngStream(7, "x")
        cfg = config(duration=60.0)
        reno = run_flow(
            cfg, RoundCorrelatedLoss(RngStream(7, "d"), 0.003, cfg.base_rtt),
            NoLoss(), seed=7,
        )
        newreno = run_flow(
            cfg, RoundCorrelatedLoss(RngStream(7, "d"), 0.003, cfg.base_rtt),
            NoLoss(), seed=7, variant="newreno",
        )
        assert newreno.throughput >= 0.9 * reno.throughput

    def test_spurious_timeouts_unchanged(self):
        # Pure ACK outage: NewReno times out exactly like Reno — it
        # cannot see missing ACKs (the paper's variant-agnostic point).
        cfg = config(duration=15.0, min_rto=0.4)
        reno = run_flow(
            cfg, NoLoss(), TraceDrivenLoss(range(10, 18)), seed=9,
        )
        newreno = run_flow(
            cfg, NoLoss(), TraceDrivenLoss(range(10, 18)), seed=9, variant="newreno",
        )
        assert len(newreno.log.timeouts) == len(reno.log.timeouts)

    def test_sequence_delivery_complete(self):
        result = run_flow(
            config(b=1, duration=20.0),
            data_loss=TraceDrivenLoss([60, 64]),
            ack_loss=NoLoss(),
            seed=2,
            variant="newreno",
        )
        delivered = {r.seq for r in result.log.data_packets if r.arrival_time is not None}
        assert delivered == set(range(len(delivered)))
