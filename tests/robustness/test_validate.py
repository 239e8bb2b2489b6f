"""Trace validation: honest captures pass, every corruption class is named."""

import pytest

from repro.hsr.scenario import hsr_scenario, stationary_scenario
from repro.robustness.validate import check_trace, validate_trace
from repro.simulator.connection import run_flow
from repro.simulator.metrics import AckRecord, DataPacketRecord, TimeoutRecord
from repro.traces.capture import capture_flow
from repro.traces.events import FlowMetadata, FlowTrace
from repro.util.errors import TraceValidationError


def metadata(duration=10.0):
    return FlowMetadata(
        flow_id="test/flow/000",
        provider="China Mobile",
        technology="LTE",
        scenario="hsr",
        capture_month="2015-10",
        phone_model="Samsung Note 3",
        duration=duration,
        seed=1,
    )


def simulated_trace(seed=3, duration=20.0, scenario=None):
    scenario = scenario or hsr_scenario()
    built = scenario.build(duration=duration, seed=seed)
    result = run_flow(built.config, built.data_loss, built.ack_loss, seed=seed)
    return capture_flow(result, metadata(duration))


def data_record(**overrides):
    defaults = dict(
        transmission_id=0, seq=0, send_time=1.0, arrival_time=1.1
    )
    defaults.update(overrides)
    return DataPacketRecord(**defaults)


class TestHealthyTraces:
    def test_simulated_hsr_trace_is_valid(self):
        assert validate_trace(simulated_trace()) == []

    def test_simulated_stationary_trace_is_valid(self):
        trace = simulated_trace(scenario=stationary_scenario())
        result = check_trace(trace)
        assert result.ok
        assert result.flow_id == "test/flow/000"

    def test_capture_flow_validate_passes_healthy_flow(self):
        built = hsr_scenario().build(duration=15.0, seed=4)
        result = run_flow(built.config, built.data_loss, built.ack_loss, seed=4)
        trace = capture_flow(result, metadata(15.0), validate=True)
        assert trace.delivered_payloads > 0

    def test_empty_trace_is_valid(self):
        assert validate_trace(FlowTrace(metadata=metadata())) == []


class TestCorruptions:
    def test_non_positive_duration(self):
        issues = validate_trace(FlowTrace(metadata=metadata(duration=0.0)))
        assert any("duration" in issue for issue in issues)

    def test_non_monotonic_send_times(self):
        trace = FlowTrace(
            metadata=metadata(),
            data_packets=[
                data_record(send_time=2.0, arrival_time=2.1),
                data_record(transmission_id=1, seq=1, send_time=1.0, arrival_time=1.1),
            ],
        )
        assert any("send order" in issue for issue in validate_trace(trace))

    def test_arrival_before_send(self):
        trace = FlowTrace(
            metadata=metadata(),
            data_packets=[data_record(send_time=2.0, arrival_time=1.0)],
        )
        assert any("before it was sent" in i for i in validate_trace(trace))

    def test_dropped_packet_with_arrival(self):
        trace = FlowTrace(
            metadata=metadata(),
            data_packets=[data_record(dropped=True)],
        )
        assert any("marked lost" in issue for issue in validate_trace(trace))

    def test_event_after_flow_end(self):
        trace = FlowTrace(
            metadata=metadata(duration=5.0),
            data_packets=[data_record(send_time=9.0, arrival_time=9.1)],
        )
        assert any("after flow end" in issue for issue in validate_trace(trace))

    def test_negative_seq(self):
        trace = FlowTrace(
            metadata=metadata(), data_packets=[data_record(seq=-1)]
        )
        assert any("negative sequence" in i for i in validate_trace(trace))

    def test_ack_beyond_sent_data(self):
        trace = FlowTrace(
            metadata=metadata(),
            data_packets=[data_record()],
            acks=[
                AckRecord(
                    transmission_id=0, ack_seq=50, send_time=1.2, arrival_time=1.3
                )
            ],
        )
        assert any("never" in i or "highest data seq" in i for i in validate_trace(trace))

    def test_payload_counters_exceed_arrivals(self):
        trace = FlowTrace(
            metadata=metadata(),
            data_packets=[data_record()],
            delivered_payloads=5,
        )
        assert any("payload counters" in i for i in validate_trace(trace))

    def test_timeout_outside_flow(self):
        trace = FlowTrace(
            metadata=metadata(duration=5.0),
            timeouts=[
                TimeoutRecord(
                    time=7.0, seq=0, backoff_exponent=0, rto_value=1.0,
                    sequence_index=0,
                )
            ],
        )
        assert any("timeout[0]" in issue for issue in validate_trace(trace))

    def test_multiple_issues_all_reported(self):
        trace = FlowTrace(
            metadata=metadata(duration=5.0),
            data_packets=[
                data_record(seq=-1, send_time=9.0, arrival_time=8.0),
            ],
            delivered_payloads=-1,
        )
        issues = validate_trace(trace)
        assert len(issues) >= 3


class TestCaptureIntegration:
    def test_capture_flow_raises_on_corrupt_log(self):
        built = stationary_scenario().build(duration=10.0, seed=6)
        result = run_flow(built.config, built.data_loss, built.ack_loss, seed=6)
        result.log.data_packets.send_time[0] = 99.0  # beyond the horizon
        with pytest.raises(TraceValidationError) as excinfo:
            capture_flow(result, metadata(10.0), validate=True)
        assert excinfo.value.flow_id == "test/flow/000"
        assert excinfo.value.issues

    def test_capture_flow_without_validate_keeps_old_behaviour(self):
        built = stationary_scenario().build(duration=10.0, seed=6)
        result = run_flow(built.config, built.data_loss, built.ack_loss, seed=6)
        result.log.data_packets.send_time[0] = 99.0
        trace = capture_flow(result, metadata(10.0))  # no raise
        assert trace.data_packets
