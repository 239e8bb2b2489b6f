"""Column readers agree with the record loops they replaced.

Validation and the Table-I / Fig.-10 readers work on whole columns
(numpy masks, column sums).  Each ``_loop_*`` function below is the
record-by-record version those readers replaced, kept as the
reference: on simulated flows and on seeded random traces full of
corruption, the columnar result must be *equal* — same issue strings
in the same order, same integer counts, same float bits.
"""

import math
import random
from bisect import bisect_left

import pytest

from repro.hsr.scenario import hsr_scenario, stationary_scenario
from repro.robustness.validate import validate_trace
from repro.simulator.connection import run_flow
from repro.simulator.metrics import (
    AckRecord,
    DataPacketRecord,
    RecoveryPhaseRecord,
    TimeoutRecord,
)
from repro.traces.analysis import estimate_rtt
from repro.traces.capture import capture_flow
from repro.traces.correlation import _timeout_probability, measured_model_inputs
from repro.traces.events import FlowMetadata, FlowTrace
from repro.traces.timeouts import classify_timeouts
from repro.util.stats import mean

_SLACK = 1e-9


def _loop_wire_records(records, duration, kind, issues):
    previous_send = -float("inf")
    highest = -1
    for index, record in enumerate(records):
        label = f"{kind}[{index}]"
        seq = record.seq if kind == "data" else record.ack_seq
        highest = max(highest, seq)
        if seq < 0:
            issues.append(f"{label}: negative sequence number {seq}")
        if record.send_time < 0.0:
            issues.append(f"{label}: negative send time {record.send_time}")
        if record.send_time < previous_send - _SLACK:
            issues.append(
                f"{label}: send time {record.send_time} precedes previous "
                f"{previous_send} (records must be in send order)"
            )
        previous_send = max(previous_send, record.send_time)
        if record.send_time > duration + _SLACK:
            issues.append(f"{label}: sent at {record.send_time} after flow end {duration}")
        if record.dropped and record.arrival_time is not None:
            issues.append(f"{label}: marked lost but has an arrival time {record.arrival_time}")
        if record.arrival_time is not None:
            if record.arrival_time < record.send_time - _SLACK:
                issues.append(
                    f"{label}: arrived at {record.arrival_time} before it was "
                    f"sent at {record.send_time}"
                )
            if record.arrival_time > duration + _SLACK:
                issues.append(f"{label}: arrived at {record.arrival_time} after flow end {duration}")
    return highest


def _loop_wire_issues(trace):
    """The record loop's per-packet and ACK-coverage issues."""
    duration = trace.metadata.duration
    issues = []
    max_seq = _loop_wire_records(trace.data_packets, duration, "data", issues)
    _loop_wire_records(trace.acks, duration, "ack", issues)
    for index, ack in enumerate(trace.acks):
        if ack.ack_seq > max_seq + 1:
            issues.append(
                f"ack[{index}]: acknowledges seq {ack.ack_seq} but highest "
                f"data seq sent is {max_seq}"
            )
    arrivals = sum(1 for record in trace.data_packets if record.arrival_time is not None)
    return issues, arrivals


def _loop_estimate_rtt(trace, max_samples=2000):
    retransmitted = {r.seq for r in trace.data_packets if r.is_retransmission}
    ack_arrivals = sorted(
        (r.arrival_time, r.ack_seq) for r in trace.acks if r.arrival_time is not None
    )
    if not ack_arrivals:
        return None
    arrival_times = [arrival for arrival, _ in ack_arrivals]
    suffix_max = [0] * len(ack_arrivals)
    running = 0
    for index in range(len(ack_arrivals) - 1, -1, -1):
        running = max(running, ack_arrivals[index][1])
        suffix_max[index] = running
    samples = []
    step = max(1, len(trace.data_packets) // max_samples)
    for record in list(trace.data_packets)[::step]:
        if record.is_retransmission or record.seq in retransmitted or record.lost:
            continue
        lo = bisect_left(arrival_times, record.send_time)
        if lo >= len(ack_arrivals) or suffix_max[lo] <= record.seq:
            continue
        hi = len(ack_arrivals) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if suffix_max[mid + 1] > record.seq and ack_arrivals[mid][1] <= record.seq:
                lo = mid + 1
            elif ack_arrivals[mid][1] > record.seq:
                hi = mid
            else:
                lo = mid + 1
        samples.append(ack_arrivals[lo][0] - record.send_time)
    return mean(samples) if samples else None


def _loop_readers(trace):
    """Loss rates, loss-event rate, arrivals, timeout verdicts and the
    Fig.-4 timeout probability."""
    data, acks = list(trace.data_packets), list(trace.acks)
    events, previous = 0, False
    for record in data:
        if record.lost and not previous:
            events += 1
        previous = record.lost
    arrivals = {}
    for record in data:
        if record.arrival_time is not None:
            arrivals.setdefault(record.seq, []).append(record.arrival_time)
    for times in arrivals.values():
        times.sort()
    spurious = [
        bool(arrivals.get(t.seq)) and arrivals[t.seq][0] <= t.time for t in trace.timeouts
    ]
    fast = sum(1 for r in data if r.is_retransmission and not r.in_timeout_recovery)
    sequences = len(trace.recovery_phases)
    return (
        sum(1 for r in data if r.lost) / len(data) if data else 0.0,
        sum(1 for r in acks if r.lost) / len(acks) if acks else 0.0,
        events / len(data) if data else 0.0,
        sorted(arrivals.items()),
        spurious,
        sequences / (fast + sequences) if fast + sequences else None,
    )


def _column_readers(trace):
    return (
        trace.data_loss_rate,
        trace.ack_loss_rate,
        trace.data_loss_event_rate,
        sorted(trace.arrivals_by_seq().items()),
        [c.spurious for c in classify_timeouts(trace)],
        _timeout_probability(trace),
    )


def _metadata(duration):
    return FlowMetadata(
        flow_id="columns/reference", provider="China Mobile", technology="LTE",
        scenario="hsr", capture_month="2015-10", phone_model="Samsung Note 3",
        duration=duration, seed=1,
    )


def _random_trace(rng):
    """A small trace with every corruption class the validator names,
    in random places (NaN send times included)."""
    duration = rng.choice([5.0, 10.0, 3])
    now, data = 0.0, []
    for row in range(rng.randrange(0, 40)):
        now += rng.choice([0.01, -0.2, 0.0]) if rng.random() < 0.2 else 0.05
        send = math.nan if rng.random() < 0.05 else now
        arrival = None if rng.random() < 0.3 else send + rng.choice([0.04, -0.1, 20.0])
        data.append(DataPacketRecord(
            row, rng.randrange(-2, 15), send, arrival, rng.random() < 0.2,
            rng.random() < 0.2, rng.random() < 0.1, rng.randrange(0, 2),
        ))
    now, acks = 0.0, []
    for row in range(rng.randrange(0, 30)):
        now += rng.choice([-0.3, 0.0, 0.05]) if rng.random() < 0.2 else 0.05
        arrival = None if rng.random() < 0.3 else now + rng.choice([0.03, -0.5, 30.0])
        acks.append(AckRecord(
            row, rng.randrange(-1, 20), now, arrival, rng.random() < 0.2,
            rng.random() < 0.3,
        ))
    timeouts = [
        TimeoutRecord(rng.uniform(-1, 12), rng.randrange(0, 15), rng.randrange(0, 3), 1.0, 0)
        for _ in range(rng.randrange(0, 4))
    ]
    phases = [RecoveryPhaseRecord(1.0, 2.0, 1, 2, 1)] if rng.random() < 0.5 else []
    return FlowTrace(
        _metadata(duration), data, acks, timeouts, phases,
        delivered_payloads=rng.randrange(0, 20),
    )


def _simulated(scenario, seed, duration):
    built = scenario.build(duration=duration, seed=seed)
    result = run_flow(built.config, built.data_loss, built.ack_loss, seed=seed)
    return capture_flow(result, _metadata(duration))


@pytest.fixture(scope="module")
def simulated_traces():
    return [
        _simulated(hsr_scenario(), 3, 20.0),
        _simulated(hsr_scenario(), 11, 30.0),
        _simulated(stationary_scenario(), 6, 10.0),
    ]


def _has_nan(trace):
    return any(math.isnan(t) for t in trace.data_packets.send_time)


def test_random_traces_match_the_record_loops():
    rng = random.Random(2015)
    corrupt = 0
    for _ in range(300):
        trace = _random_trace(rng)
        issues, arrivals = _loop_wire_issues(trace)
        columnar = validate_trace(trace)
        assert [i for i in columnar if i.startswith(("data[", "ack["))] == issues
        assert trace.data_packets.bit("arrival_time").count(1) == arrivals
        columns, loops = _column_readers(trace), _loop_readers(trace)
        if _has_nan(trace):
            # Python's sort and bisect order NaN times inconsistently,
            # so arrival order, first-arrival verdicts and RTT samples
            # are compared on NaN-free traces only; a capture never
            # holds a NaN time.
            columns, loops = columns[:3] + columns[5:], loops[:3] + loops[5:]
        else:
            assert repr(estimate_rtt(trace)) == repr(_loop_estimate_rtt(trace))
        assert repr(columns) == repr(loops)
        corrupt += bool(issues)
    assert corrupt > 200


def test_simulated_traces_match_the_record_loops(simulated_traces):
    for trace in simulated_traces:
        assert validate_trace(trace) == []
        assert _loop_wire_issues(trace)[0] == []
        assert _column_readers(trace) == _loop_readers(trace)
        rtt = estimate_rtt(trace)
        assert rtt is not None and rtt == _loop_estimate_rtt(trace)
        assert measured_model_inputs(trace) is not None
