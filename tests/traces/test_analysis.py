"""Tests for per-flow analysis (Fig-1 series, RTT estimation, summaries)."""

import pytest

from repro.simulator import ConnectionConfig, NoLoss, TraceDrivenLoss, run_flow
from repro.traces.analysis import (
    LOST_MARKER,
    arrival_latency_series,
    estimate_rtt,
    flow_summary,
)
from repro.traces.capture import capture_flow
from repro.traces.events import FlowMetadata


def make_trace(data_loss=None, ack_loss=None, duration=10.0, **config):
    result = run_flow(
        ConnectionConfig(duration=duration, **config),
        data_loss or NoLoss(),
        ack_loss or NoLoss(),
        seed=5,
    )
    meta = FlowMetadata(
        flow_id="t/0", provider="China Mobile", technology="LTE",
        scenario="hsr", capture_month="2015-01", phone_model="Samsung Note 3",
        duration=duration, seed=5,
    )
    return capture_flow(result, meta)


class TestArrivalLatencySeries:
    def test_covers_both_directions(self):
        points = arrival_latency_series(make_trace())
        directions = {point.direction for point in points}
        assert directions == {"data", "ack"}

    def test_sorted_by_send_time(self):
        points = arrival_latency_series(make_trace())
        times = [point.send_time for point in points]
        assert times == sorted(times)

    def test_clean_channel_latency_near_delay(self):
        points = arrival_latency_series(make_trace())
        for point in points:
            assert not point.lost
            assert 0.02 <= point.latency <= 0.2

    def test_lost_packets_marked_minus_one(self):
        points = arrival_latency_series(make_trace(data_loss=TraceDrivenLoss([5])))
        lost = [point for point in points if point.lost]
        assert len(lost) == 1
        assert lost[0].latency == LOST_MARKER
        assert lost[0].direction == "data"

    def test_point_count_matches_resolved_transmissions(self):
        trace = make_trace()
        points = arrival_latency_series(trace)
        resolved = [
            r for r in [*trace.data_packets, *trace.acks]
            if r.lost or r.latency is not None
        ]
        assert len(points) == len(resolved)
        # in-flight-at-horizon rows are excluded
        assert len(points) <= len(trace.data_packets) + len(trace.acks)


class TestEstimateRtt:
    def test_clean_channel_rtt_near_configured(self):
        trace = make_trace(forward_delay=0.04, reverse_delay=0.04)
        rtt = estimate_rtt(trace)
        # Base 0.08 plus delayed-ACK waiting; must land in a sane band.
        assert 0.08 <= rtt <= 0.2

    def test_rtt_grows_with_link_delay(self):
        fast = estimate_rtt(make_trace(forward_delay=0.01, reverse_delay=0.01))
        slow = estimate_rtt(make_trace(forward_delay=0.08, reverse_delay=0.08))
        assert slow > fast

    def test_empty_trace_returns_none(self):
        trace = make_trace()
        trace.acks = []
        assert estimate_rtt(trace) is None

    def test_survives_lossy_trace(self):
        trace = make_trace(data_loss=TraceDrivenLoss(range(20, 40)))
        assert estimate_rtt(trace) is not None


class TestFlowSummary:
    def test_summary_fields(self):
        trace = make_trace()
        summary = flow_summary(trace)
        assert summary.flow_id == "t/0"
        assert summary.provider == "China Mobile"
        assert summary.throughput == pytest.approx(trace.throughput)
        assert summary.timeouts == len(trace.timeouts)
        assert summary.transferred_bytes == trace.transferred_bytes

    def test_clean_flow_has_no_timeouts(self):
        summary = flow_summary(make_trace())
        assert summary.timeouts == 0
        assert summary.recovery_phases == 0
        assert summary.duplicate_payloads == 0
