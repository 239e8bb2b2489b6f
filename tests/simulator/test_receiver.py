"""Unit tests for the TCP receiver (cumulative + delayed ACKs)."""

import pytest

from repro.simulator.channel import Link
from repro.simulator.engine import Simulator
from repro.simulator.metrics import FlowLog
from repro.simulator.packet import Segment
from repro.simulator.receiver import Receiver
from repro.util.errors import ConfigurationError


class Harness:
    """Receiver + ACK sink wired to a real simulator."""

    def __init__(self, b=2, delack_timeout=0.2):
        self.sim = Simulator()
        self.received_acks = []
        self.log = FlowLog()
        ack_link = Link(
            self.sim, delay=0.01,
            deliver=lambda ack, t: self.received_acks.append(ack),
        )
        self.receiver = Receiver(
            self.sim, ack_link, self.log, b=b, delack_timeout=delack_timeout
        )
        self._tid = 0

    def deliver(self, seq, at=None):
        time = self.sim.now if at is None else at
        segment = Segment(seq=seq, transmission_id=self._tid, send_time=time)
        self.log.record_data_send(self._tid, seq, time)
        self._tid += 1
        self.receiver.on_data(segment, time)


class TestInOrderDelivery:
    def test_ack_every_b_packets(self):
        h = Harness(b=2)
        h.deliver(0)
        h.deliver(1)
        h.sim.run()
        assert len(h.received_acks) == 1
        assert h.received_acks[0].ack_seq == 2

    def test_first_packet_ack_delayed_until_timer(self):
        h = Harness(b=2, delack_timeout=0.2)
        h.deliver(0)
        h.sim.run()
        # No companion packet arrived: the delayed-ACK timer fires.
        assert len(h.received_acks) == 1
        assert h.received_acks[0].ack_seq == 1
        assert h.received_acks[0].send_time == pytest.approx(0.2)

    def test_b1_acks_every_packet(self):
        h = Harness(b=1)
        for seq in range(4):
            h.deliver(seq)
        h.sim.run()
        assert [a.ack_seq for a in h.received_acks] == [1, 2, 3, 4]

    def test_cumulative_ack_value(self):
        h = Harness(b=2)
        for seq in range(6):
            h.deliver(seq)
        h.sim.run()
        assert [a.ack_seq for a in h.received_acks] == [2, 4, 6]

    def test_delivered_payload_count(self):
        h = Harness()
        for seq in range(5):
            h.deliver(seq)
        assert h.log.delivered_payloads == 5


class TestOutOfOrder:
    def test_gap_triggers_immediate_dup_ack(self):
        h = Harness(b=2)
        h.deliver(0)
        h.deliver(1)  # ack 2 sent
        h.deliver(3)  # gap: seq 2 missing -> dup ACK of 2, immediately
        h.sim.run()
        dups = [a for a in h.received_acks if a.is_duplicate]
        assert len(dups) == 1
        assert dups[0].ack_seq == 2

    def test_gap_fill_advances_past_buffer(self):
        h = Harness(b=1)
        h.deliver(0)
        h.deliver(2)
        h.deliver(3)
        h.deliver(1)  # fills the gap -> cumulative ACK jumps to 4
        h.sim.run()
        assert h.received_acks[-1].ack_seq == 4

    def test_buffered_payloads_counted_once(self):
        h = Harness(b=1)
        h.deliver(0)
        h.deliver(2)
        h.deliver(1)
        assert h.log.delivered_payloads == 3


class TestDuplicatePayloads:
    def test_duplicate_detected(self):
        h = Harness(b=1)
        h.deliver(0)
        h.deliver(0)  # spurious retransmission arrives
        assert h.log.duplicate_payloads == 1

    def test_duplicate_triggers_reack(self):
        h = Harness(b=1)
        h.deliver(0)
        h.deliver(0)
        h.sim.run()
        # Both the original ACK and the resynchronising re-ACK carry
        # the same cumulative value.
        assert [a.ack_seq for a in h.received_acks] == [1, 1]

    def test_out_of_order_duplicate_detected(self):
        h = Harness(b=1)
        h.deliver(2)
        h.deliver(2)
        assert h.log.duplicate_payloads == 1


class TestDelayedAckTimer:
    def test_timer_cancelled_by_second_packet(self):
        h = Harness(b=2, delack_timeout=0.5)
        h.deliver(0)
        h.sim.schedule(0.1, lambda: h.deliver(1))
        h.sim.run()
        assert len(h.received_acks) == 1
        # ACK went out at 0.1 (b reached), not 0.5 (timer).
        assert h.received_acks[0].send_time == pytest.approx(0.1)

    def test_timer_does_not_fire_without_pending_data(self):
        h = Harness(b=2)
        h.deliver(0)
        h.deliver(1)
        h.sim.run()
        assert len(h.received_acks) == 1  # no stray timer ACK


class TestValidation:
    def test_rejects_bad_b(self):
        sim = Simulator()
        link = Link(sim, delay=0.01, deliver=lambda *a: None)
        with pytest.raises(ConfigurationError):
            Receiver(sim, link, FlowLog(), b=0)

    def test_rejects_bad_delack_timeout(self):
        sim = Simulator()
        link = Link(sim, delay=0.01, deliver=lambda *a: None)
        with pytest.raises(ConfigurationError):
            Receiver(sim, link, FlowLog(), delack_timeout=0.0)
