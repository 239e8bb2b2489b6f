"""Unit tests for the packet dataclasses."""

from repro.simulator.packet import AckSegment, Segment


class TestSegments:
    def test_segment_defaults(self):
        segment = Segment(seq=3, transmission_id=7, send_time=1.5)
        assert not segment.is_retransmission
        assert not segment.in_timeout_recovery
        assert segment.subflow_id == 0

    def test_ack_defaults(self):
        ack = AckSegment(ack_seq=9, transmission_id=2, send_time=0.25)
        assert not ack.is_duplicate
        assert ack.subflow_id == 0
