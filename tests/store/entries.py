"""Entry builders shared by the schema-3 store tests."""

import gzip
import hashlib
import json

from repro.simulator.metrics import FlowLog
from repro.store.format import COLUMNS


def column_payload(flow_id="t/columns"):
    """A payload with a small log column block, shaped like encode_outcome's."""
    log = FlowLog()
    log.record_data_send(0, 1, 0.5)
    log.record_data_arrival(0, 0.55)
    log.record_data_send(1, 2, 0.5)
    log.record_data_drop(1)
    log.record_ack_send(0, 2, 0.56)
    log.record_ack_arrival(0, 0.6)
    log.record_cwnd(0.5, 2.0, "slow_start")
    meta, block = log.to_columns()
    return {
        "flow_id": flow_id, "attempts": 1, "failures": [],
        "result": {"log": meta}, COLUMNS: block,
    }


def _frame(header, body):
    header = dict(header, digest=hashlib.sha256(body).hexdigest())
    return gzip.compress(
        json.dumps(header, sort_keys=True).encode() + b"\n" + body, mtime=0
    )


def schema2_entry(key, flow_id="t/old"):
    """Entry bytes as schema 2 wrote them: the log as JSON rows."""
    log = {
        "data_packets": [[1, 1, 0.5, 0.55, False, False, False, 0]],
        "acks": [[1, 2, 0.56, 0.6, False, False, 0]],
        "timeouts": [], "recovery_phases": [],
        "cwnd_samples": [[0.5, 2.0, "slow_start"]],
        "delivered_payloads": 1, "duplicate_payloads": 0,
    }
    payload = {"flow_id": flow_id, "attempts": 1, "failures": [], "result": {"log": log}}
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return _frame({"schema": 2, "key": key, "flow_id": flow_id}, body)


def truncate_block(raw):
    """Entry bytes with the column block one byte short, re-digested so
    only the length check can catch it."""
    head, body = gzip.decompress(raw).split(b"\n", 1)
    return _frame(json.loads(head), body[:-1])


def rot_entry(store, key):
    """Cut a stored entry to half its gzip frame: unreadable, so the
    next read quarantines it and the flow recomputes."""
    path = store.path_for(key)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
