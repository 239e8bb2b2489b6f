"""FlowLog's columnar wire form: exact round trips and refused values.

The columns are the only form a log takes outside memory — the result
store writes them and the process pool pickles them — so the contract
is byte-identity: a restored log pickles exactly like the original.
"""

import pickle
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc import cc_names
from repro.exec import FlowSpec
from repro.exec.executor import _execute_payload
from repro.hsr import CHINA_MOBILE, hsr_scenario
from repro.robustness.campaign import RetryPolicy
from repro.simulator import ConnectionConfig, FlowHarness, Simulator
from repro.simulator.metrics import (
    AckRecord,
    CwndSample,
    DataPacketRecord,
    FlowLog,
    RecoveryPhaseRecord,
    TimeoutRecord,
)
from repro.store import ResultStore, decode_outcome, encode_outcome, flow_key
from repro.traces.events import FlowMetadata

PHASES = ("slow_start", "congestion_avoidance", "fast_recovery", "timeout_recovery")


def _round_trip(log):
    meta, block = log.to_columns()
    return FlowLog.from_columns(meta, block)


def _payload(cc):
    metadata = FlowMetadata(
        flow_id=f"columns/{cc}", provider="CM", technology="LTE",
        scenario="hsr", capture_month="2015-01", phone_model="Note 3",
        duration=6.0, seed=3,
    )
    spec = FlowSpec(
        scenario=hsr_scenario(CHINA_MOBILE), duration=6.0, seed=3, cc=cc,
        flow_id=f"columns/{cc}", metadata=metadata,
    )
    return (0, spec, RetryPolicy())


@pytest.fixture(scope="module")
def serial_outcomes():
    return {cc: _execute_payload(_payload(cc)) for cc in cc_names()}


class TestEveryCc:
    @pytest.mark.parametrize("cc", cc_names())
    def test_columns_round_trip(self, serial_outcomes, cc):
        log = serial_outcomes[cc].result.log
        assert log.data_packets and log.acks and log.cwnd_samples
        assert pickle.dumps(_round_trip(log)) == pickle.dumps(log)

    @pytest.mark.parametrize("cc", cc_names())
    def test_store_round_trip(self, serial_outcomes, cc, tmp_path):
        outcome = serial_outcomes[cc]
        store = ResultStore(tmp_path / "store")
        key = flow_key(outcome.spec)
        store.put(key, encode_outcome(outcome))
        cached = decode_outcome(store.load(key), index=0, spec=outcome.spec)
        assert pickle.dumps(cached.result.log) == pickle.dumps(outcome.result.log)
        assert pickle.dumps(cached.trace) == pickle.dumps(outcome.trace)

    def test_spawn_pool_round_trip(self, serial_outcomes):
        payloads = [_payload(cc) for cc in cc_names()]
        with ProcessPoolExecutor(1, mp_context=get_context("spawn")) as pool:
            pooled = list(pool.map(_execute_payload, payloads))
        for cc, outcome in zip(cc_names(), pooled):
            fresh = serial_outcomes[cc]
            assert pickle.dumps(outcome.result.log) == pickle.dumps(fresh.result.log)
            assert pickle.dumps(outcome.trace) == pickle.dumps(fresh.trace)
            assert outcome.trace.data_packets is outcome.result.log.data_packets


class TestOutcomePickle:
    def test_trace_is_recaptured_from_the_log(self, serial_outcomes):
        outcome = serial_outcomes["reno"]
        clone = pickle.loads(pickle.dumps(outcome))
        assert clone.trace.metadata == outcome.trace.metadata
        assert clone.trace.acks is clone.result.log.acks
        assert clone.spec == outcome.spec and clone.attempts == outcome.attempts

    def test_columns_shrink_the_pickle(self, serial_outcomes):
        outcome = serial_outcomes["reno"]
        record_pickle = pickle.dumps((outcome.result.log, outcome.trace))
        assert len(pickle.dumps(outcome)) < 0.75 * len(record_pickle)


class TestEdgeCases:
    def test_empty_log(self):
        log = FlowLog()
        meta, block = log.to_columns()
        assert block == b""
        assert pickle.dumps(FlowLog.from_columns(meta, block)) == pickle.dumps(log)

    def test_in_flight_packets_keep_none(self):
        log = FlowLog()
        log.record_data_send(DataPacketRecord(1, 1, 0.5))
        log.record_data_send(DataPacketRecord(2, 2, 0.75, arrival_time=0.8))
        log.record_data_drop(1)
        log.record_data_send(DataPacketRecord(3, 3, 0.9))  # still in flight
        log.record_ack_send(AckRecord(1, 2, 0.81))
        restored = _round_trip(log)
        assert [r.arrival_time for r in restored.data_packets] == [None, 0.8, None]
        assert [r.dropped for r in restored.data_packets] == [True, False, False]
        assert restored.acks[0].arrival_time is None
        assert pickle.dumps(restored) == pickle.dumps(log)

    def test_four_phases_share_one_str_each(self):
        log = FlowLog()
        for step in range(12):
            # a fresh str object per sample, as a decoder would make
            phase = "".join(PHASES[step % 4])
            log.record_cwnd(0.1 * step, 2.0 + step, phase)
        restored = _round_trip(log)
        for name in PHASES:
            objects = {id(s.phase) for s in restored.cwnd_samples if s.phase == name}
            assert len(objects) == 1
        assert restored.cwnd_samples[0].phase is sys.intern("slow_start")

    def test_timeouts_and_recovery_phases(self):
        log = FlowLog(
            timeouts=[TimeoutRecord(1.5, 7, 0, 1.0, 0), TimeoutRecord(2.5, 7, 1, 2.0, 0)],
            recovery_phases=[
                RecoveryPhaseRecord(1.5, 3.25, 2, 3, 1), RecoveryPhaseRecord(9.0)
            ],
            delivered_payloads=5,
            duplicate_payloads=1,
        )
        assert pickle.dumps(_round_trip(log)) == pickle.dumps(log)

    def test_int_in_a_float_column_raises(self):
        log = FlowLog()
        log.record_data_send(DataPacketRecord(1, 1, 2))  # send_time: int
        with pytest.raises(TypeError, match="send_time"):
            log.to_columns()

    def test_int64_overflow_raises(self):
        log = FlowLog()
        log.record_ack_send(AckRecord(1, 2**63, 0.5))
        with pytest.raises(OverflowError, match="ack_seq"):
            log.to_columns()

    def test_bool_in_an_int_column_raises(self):
        log = FlowLog()
        log.record_data_send(DataPacketRecord(1, True, 0.5))
        with pytest.raises(TypeError, match="seq"):
            log.to_columns()

    def test_short_block_is_refused(self):
        log = FlowLog()
        log.record_cwnd(0.0, 2.0, "slow_start")
        meta, block = log.to_columns()
        with pytest.raises(ValueError, match="column block"):
            FlowLog.from_columns(meta, block[:-1])


class TestTransmissionIndex:
    def test_finished_flow_drops_it(self, serial_outcomes):
        log = serial_outcomes["reno"].result.log
        assert log._by_transmission == {} and log._ack_by_transmission == {}

    def test_mid_run_result_keeps_it_and_pickles_alike(self):
        sim = Simulator()
        harness = FlowHarness(ConnectionConfig(duration=3.0), simulator=sim, seed=4)
        sim.run(until=3.0)
        log = harness.result().log
        assert len(log._by_transmission) == len(log.data_packets)
        restored = pickle.loads(pickle.dumps(log))
        assert restored._by_transmission == {}
        log.seal()
        assert pickle.dumps(log) == pickle.dumps(restored)


finite = st.floats(allow_nan=False)
int64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
data_records = st.builds(
    DataPacketRecord, int64, int64, finite, st.none() | finite,
    st.booleans(), st.booleans(), st.booleans(), int64,
)
ack_records = st.builds(
    AckRecord, int64, int64, finite, st.none() | finite,
    st.booleans(), st.booleans(), int64,
)
cwnd_samples = st.builds(CwndSample, finite, finite, st.sampled_from(PHASES))


@given(
    st.lists(data_records, max_size=40),
    st.lists(ack_records, max_size=40),
    st.lists(cwnd_samples, max_size=40),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=60, deadline=None)
def test_any_log_round_trips_exactly(data, acks, samples, delivered):
    log = FlowLog(
        data_packets=data, acks=acks, cwnd_samples=samples, delivered_payloads=delivered
    )
    assert pickle.dumps(_round_trip(log)) == pickle.dumps(log)
