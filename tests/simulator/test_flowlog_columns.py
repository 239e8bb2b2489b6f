"""FlowLog's columns: the in-memory form, the wire form and the views.

A log keeps its per-packet observables as typed columns from the first
packet on; the result store writes those columns and the process pool
pickles them.  The contracts pinned here:

* the block is byte-identical to the schema-3 record encoder
  (``_reference_encode`` below, a copy of the encoder that wrote
  record lists), so stored entries stay readable both ways;
* a restored log pickles exactly like the original;
* ``data_packets``/``acks``/``cwnd_samples`` read as sequences of
  frozen records, built only when asked — the campaign paths build
  none.
"""

import dataclasses
import pickle
import sys
from array import array
from concurrent.futures import ProcessPoolExecutor
from itertools import compress, repeat
from multiprocessing import get_context
from operator import attrgetter, is_not, not_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc import cc_names
from repro.exec import FlowSpec
from repro.exec.executor import _execute_payload
from repro.hsr import CHINA_MOBILE, hsr_scenario
from repro.robustness.campaign import RetryPolicy
from repro.simulator import ConnectionConfig, FlowHarness, Simulator
from repro.simulator.channel import NoLoss, TraceDrivenLoss
from repro.simulator.metrics import (
    AckRecord,
    CwndSample,
    DataPacketRecord,
    FlowLog,
    RecoveryPhaseRecord,
    TimeoutRecord,
)
from repro.simulator.mptcp import run_backup
from repro.store import ResultStore, decode_outcome, encode_outcome, flow_key
from repro.store.format import COLUMNS
from repro.traces.capture import capture_flow
from repro.traces.events import FlowMetadata

PHASES = ("slow_start", "congestion_avoidance", "fast_recovery", "timeout_recovery")


def _round_trip(log):
    meta, block = log.to_columns()
    return FlowLog.from_columns(meta, block)


def _metadata(flow_id, duration=6.0):
    return FlowMetadata(
        flow_id=flow_id, provider="CM", technology="LTE",
        scenario="hsr", capture_month="2015-01", phone_model="Note 3",
        duration=duration, seed=3,
    )


def _payload(cc):
    spec = FlowSpec(
        scenario=hsr_scenario(CHINA_MOBILE), duration=6.0, seed=3, cc=cc,
        flow_id=f"columns/{cc}", metadata=_metadata(f"columns/{cc}"),
    )
    return (0, spec, RetryPolicy())


@pytest.fixture(scope="module")
def serial_outcomes():
    return {cc: _execute_payload(_payload(cc)) for cc in cc_names()}


@pytest.fixture(scope="module")
def mptcp_log():
    """A backup-mode flow: timeout retransmissions doubled on subflow 1."""
    spec = FlowSpec(
        config=ConnectionConfig(duration=30.0, wmax=32.0),
        data_loss=TraceDrivenLoss(range(20, 26)), ack_loss=NoLoss(),
        redundant_data_loss=NoLoss(), seed=4,
    )
    log = run_backup(spec).primary.log
    assert 1 in log.data_packets.subflow_id
    return log


# -- the schema-3 record codec, as it was before the columns ---------------

_DATA = (
    DataPacketRecord,
    ("transmission_id", "seq", "subflow_id"), ("send_time",), ("arrival_time",),
    ("dropped", "is_retransmission", "in_timeout_recovery"),
)
_ACK = (
    AckRecord,
    ("transmission_id", "ack_seq", "subflow_id"), ("send_time",), ("arrival_time",),
    ("dropped", "is_duplicate"),
)
_BIT = [bytes((value >> bit) & 1 for value in range(256)) for bit in range(8)]


def _values(records, name, allowed):
    values = list(map(attrgetter(name), records))
    assert set(map(type, values)) <= allowed, name
    return values


def _pack(code, values):
    column = array(code, values)
    if sys.byteorder != "little":
        column.byteswap()
    return column.tobytes()


def _encode_records(records, layout, parts):
    _, ints, floats, optional, flag_names = layout
    for name in ints:
        parts.append(_pack("q", _values(records, name, {int})))
    for name in floats:
        parts.append(_pack("d", _values(records, name, {float})))
    bits = []
    for name in optional:
        values = _values(records, name, {float, type(None)})
        present = bytes(map(is_not, values, repeat(None)))
        for position in compress(range(len(values)), map(not_, present)):
            values[position] = 0.0
        parts.append(_pack("d", values))
        bits.append(present)
    for name in flag_names:
        bits.append(bytes(_values(records, name, {bool})))
    flags = 0
    for shift, column in enumerate(bits):
        flags |= int.from_bytes(column, "little") << shift
    parts.append(flags.to_bytes(len(records), "little"))


def _reference_encode(data, acks, samples, log):
    """(meta, block) as the record encoder wrote them from record lists."""
    parts = []
    _encode_records(data, _DATA, parts)
    _encode_records(acks, _ACK, parts)
    parts.append(_pack("d", _values(samples, "time", {float})))
    parts.append(_pack("d", _values(samples, "cwnd", {float})))
    phases = _values(samples, "phase", {str})
    table = list(dict.fromkeys(phases))
    index = {name: position for position, name in enumerate(table)}
    parts.append(bytes(map(index.__getitem__, phases)))
    meta = {
        "counts": [len(data), len(acks), len(samples)],
        "phases": table,
        "timeouts": [dataclasses.astuple(t) for t in log.timeouts],
        "recovery_phases": [dataclasses.astuple(p) for p in log.recovery_phases],
        "delivered_payloads": log.delivered_payloads,
        "duplicate_payloads": log.duplicate_payloads,
    }
    return meta, b"".join(parts)


def _unpack(code, view, offset, count):
    end = offset + 8 * count
    column = array(code)
    column.frombytes(view[offset:end])
    if sys.byteorder != "little":
        column.byteswap()
    return column.tolist(), end


def _decode_records(view, offset, count, layout):
    record, ints, floats, optional, flag_names = layout
    columns = {}
    for code, names in (("q", ints), ("d", floats + optional)):
        for name in names:
            columns[name], offset = _unpack(code, view, offset, count)
    flags = bytes(view[offset : offset + count])
    for bit, name in enumerate(optional):
        for position in compress(range(count), map(not_, flags.translate(_BIT[bit]))):
            columns[name][position] = None
    for bit, name in enumerate(flag_names, start=len(optional)):
        columns[name] = list(map(bool, flags.translate(_BIT[bit])))
    order = [f.name for f in dataclasses.fields(record)]
    return list(map(record, *(columns[name] for name in order))), offset + count


def _reference_records(log):
    """(data, acks, samples): record lists decoded from the log's block
    by the record decoder, independent of the views."""
    meta, block = log.to_columns()
    view = memoryview(block)
    data, acks, samples = meta["counts"]
    data_records, offset = _decode_records(view, 0, data, _DATA)
    ack_records, offset = _decode_records(view, offset, acks, _ACK)
    times, offset = _unpack("d", view, offset, samples)
    cwnds, offset = _unpack("d", view, offset, samples)
    phases = [meta["phases"][index] for index in view[offset:]]
    return data_records, ack_records, list(map(CwndSample, times, cwnds, phases))


def _flow_logs(serial_outcomes, mptcp_log):
    logs = {cc: serial_outcomes[cc].result.log for cc in ("reno", "cubic", "bbr")}
    logs["mptcp-backup"] = mptcp_log
    return logs


class TestSchema3Equivalence:
    @pytest.mark.parametrize("flow", ["reno", "cubic", "bbr", "mptcp-backup"])
    def test_block_is_byte_identical_to_the_record_encoder(
        self, serial_outcomes, mptcp_log, flow
    ):
        log = _flow_logs(serial_outcomes, mptcp_log)[flow]
        data, acks, samples = (list(log.data_packets), list(log.acks), list(log.cwnd_samples))
        assert data and acks and samples
        meta, block = log.to_columns()
        ref_meta, ref_block = _reference_encode(data, acks, samples, log)
        assert block == ref_block
        assert meta == ref_meta

    @pytest.mark.parametrize("flow", ["reno", "mptcp-backup"])
    def test_reference_entry_decodes_equal(self, serial_outcomes, mptcp_log, flow):
        log = _flow_logs(serial_outcomes, mptcp_log)[flow]
        data, acks, samples = _reference_records(log)
        meta, block = _reference_encode(data, acks, samples, log)
        restored = FlowLog.from_columns(meta, block)
        assert restored == log
        assert list(restored.data_packets) == data and list(restored.acks) == acks
        assert list(restored.cwnd_samples) == samples

    def test_reference_entry_in_the_store_decodes_equal(self, serial_outcomes, tmp_path):
        outcome = serial_outcomes["cubic"]
        log = outcome.result.log
        payload = encode_outcome(outcome)
        payload["result"]["log"], payload[COLUMNS] = _reference_encode(
            *_reference_records(log), log
        )
        store = ResultStore(tmp_path / "store")
        key = flow_key(outcome.spec)
        store.put(key, payload)
        cached = decode_outcome(store.load(key), index=0, spec=outcome.spec)
        assert cached.result.log == log
        assert pickle.dumps(cached.trace) == pickle.dumps(outcome.trace)


class TestViews:
    @pytest.fixture(scope="class")
    def reference(self, serial_outcomes):
        log = serial_outcomes["reno"].result.log
        return log, _reference_records(log)

    @pytest.mark.parametrize("name", ["data_packets", "acks", "cwnd_samples"])
    def test_views_read_like_the_record_lists(self, reference, name):
        log, (data, acks, samples) = reference
        view = getattr(log, name)
        records = {"data_packets": data, "acks": acks, "cwnd_samples": samples}[name]
        assert len(view) == len(records) > 10
        assert view[0] == records[0] and view[-1] == records[-1]
        assert view[-7] == records[-7]
        for part in (slice(3, 9), slice(None, None, 4), slice(-5, None), slice(8, 2, -2)):
            assert view[part] == records[part]
        assert list(view) == records
        assert view == records
        with pytest.raises(IndexError):
            view[len(records)]

    def test_records_are_frozen(self, reference):
        log, _ = reference
        with pytest.raises(dataclasses.FrozenInstanceError):
            log.data_packets[0].send_time = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            log.acks[-1].dropped = True
        with pytest.raises(dataclasses.FrozenInstanceError):
            log.cwnd_samples[0].cwnd = 3.0

    def test_writing_a_column_is_what_readers_see(self):
        log = FlowLog()
        log.record_data_send(0, 4, 0.5)
        log.data_packets.send_time[0] = 0.25
        assert log.data_packets[0].send_time == 0.25


class _Counted:
    """Counts records built while installed (every __init__ call)."""

    def __init__(self, monkeypatch):
        self.built = 0
        for record in (DataPacketRecord, AckRecord, CwndSample):
            original = record.__init__

            def counting(instance, *args, _original=original, **kwargs):
                self.built += 1
                _original(instance, *args, **kwargs)

            monkeypatch.setattr(record, "__init__", counting)


class TestNoRecordObjects:
    def test_the_counter_sees_view_reads(self, serial_outcomes, monkeypatch):
        counted = _Counted(monkeypatch)
        log = serial_outcomes["reno"].result.log
        log.data_packets[0], list(log.acks[:3]), log.cwnd_samples[-1]
        assert counted.built == 5

    def test_decode_outcome_builds_none(self, serial_outcomes, tmp_path, monkeypatch):
        outcome = serial_outcomes["reno"]
        store = ResultStore(tmp_path / "store")
        key = flow_key(outcome.spec)
        store.put(key, encode_outcome(outcome))
        payload = store.load(key)
        counted = _Counted(monkeypatch)
        cached = decode_outcome(payload, index=0, spec=outcome.spec)
        assert cached.trace is not None and counted.built == 0

    def test_validated_capture_builds_none(self, serial_outcomes, monkeypatch):
        result = serial_outcomes["bbr"].result
        counted = _Counted(monkeypatch)
        trace = capture_flow(result, _metadata("columns/bbr"), validate=True)
        assert trace.data_packets is result.log.data_packets
        assert counted.built == 0

    def test_outcome_pickle_builds_none(self, serial_outcomes, monkeypatch):
        outcome = serial_outcomes["cubic"]
        counted = _Counted(monkeypatch)
        clone = pickle.loads(pickle.dumps(outcome))
        assert clone.result.log == outcome.result.log
        assert counted.built == 0


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
        log.record_data_send(0, 1, 0.5)
        log.record_data_send(1, 2, 0.75)
        log.record_data_arrival(1, 0.8)
        log.record_data_drop(0)
        log.record_data_send(2, 3, 0.9)  # still in flight
        log.record_ack_send(0, 2, 0.81)
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

    def test_values_take_their_column_type(self):
        log = FlowLog()
        log.record_data_send(0, True, 2)  # bool seq, int send_time
        record = log.data_packets[0]
        assert type(record.seq) is int and record.seq == 1
        assert type(record.send_time) is float and record.send_time == 2.0

    def test_non_number_is_refused_naming_the_field(self):
        log = FlowLog()
        log.record_data_send(0, 1, 0.5)
        with pytest.raises(TypeError, match="send_time"):
            log.record_data_send(1, 2, None)
        with pytest.raises(TypeError, match="cwnd"):
            log.record_cwnd(0.5, "two", "slow_start")
        assert len(log.data_packets) == 1 and len(log.cwnd_samples) == 0
        assert log == _round_trip(log)

    def test_int64_overflow_raises(self):
        log = FlowLog()
        with pytest.raises(OverflowError, match="ack_seq"):
            log.record_ack_send(0, 2**63, 0.5)
        assert len(log.acks) == 0
        assert all(len(getattr(log.acks, name)) == 0 for name in log.acks.__slots__)

    def test_short_block_is_refused(self):
        log = FlowLog()
        log.record_cwnd(0.0, 2.0, "slow_start")
        meta, block = log.to_columns()
        with pytest.raises(ValueError, match="column block"):
            FlowLog.from_columns(meta, block[:-1])

    def test_phase_index_outside_the_table_is_refused(self):
        log = FlowLog()
        log.record_cwnd(0.0, 2.0, "slow_start")
        meta, block = log.to_columns()
        with pytest.raises(ValueError, match="phase index"):
            FlowLog.from_columns(meta, block[:-1] + b"\x01")


class TestRowIsTransmissionId:
    def test_transmission_id_is_the_row(self, serial_outcomes, mptcp_log):
        for log in (serial_outcomes["reno"].result.log, mptcp_log):
            for columns in (log.data_packets, log.acks):
                assert columns.transmission_id.tolist() == list(range(len(columns)))

    def test_out_of_turn_id_is_refused(self):
        log = FlowLog()
        with pytest.raises(ValueError, match="next row 0"):
            log.record_data_send(1, 1, 0.5)
        with pytest.raises(ValueError, match="next row 0"):
            log.record_ack_send(3, 1, 0.5)

    def test_mid_run_log_pickles_and_records(self):
        sim = Simulator()
        harness = FlowHarness(ConnectionConfig(duration=3.0), simulator=sim, seed=4)
        sim.run(until=1.5)
        log = harness.result().log
        rows = len(log.data_packets)
        restored = pickle.loads(pickle.dumps(log))
        assert restored == log and pickle.dumps(restored) == pickle.dumps(log)
        log.data_packets.mask("dropped"), log.data_packets.column("seq")
        sim.run(until=3.0)
        assert len(log.data_packets) > rows


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
    assert log.to_columns()[1] == _reference_encode(data, acks, samples, log)[1]
    assert list(log.data_packets) == data and list(log.acks) == acks
    assert list(log.cwnd_samples) == samples
