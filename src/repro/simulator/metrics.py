"""Per-flow instrumentation shared by the sender and receiver.

The :class:`FlowLog` records every wire transmission in both
directions, every timeout, every timeout-recovery phase and the
congestion-window trajectory — the complete transport-layer observable
set the paper extracts from its wireshark captures.  The trace layer
(:mod:`repro.traces`) consumes these records verbatim.

A log leaves memory in one form, its *columns*
(:meth:`FlowLog.to_columns` / :meth:`FlowLog.from_columns`): the
result store writes them and the process pool pickles them.  The
per-packet record lists become one byte block of little-endian
columns — int64 for integer fields, float64 for times, one uint8
flags byte per record carrying the booleans and whether each optional
time is present (``None`` rides on that bit, never on NaN) — plus a
phase-index byte per cwnd sample.  Everything else (the counts, the
phase-name table, timeouts, recovery phases and payload tallies) goes
in a small JSON-native dict.  The round trip is exact: a restored log
pickles byte-identical to the original, and the encoder raises rather
than coerce a value the columns cannot hold as it was.
"""

from __future__ import annotations

import gc
import sys
from array import array
from dataclasses import dataclass, field, fields
from itertools import compress, repeat
from operator import attrgetter, is_not, not_
from typing import Dict, List, Optional, Tuple

__all__ = [
    "DataPacketRecord",
    "AckRecord",
    "TimeoutRecord",
    "RecoveryPhaseRecord",
    "CwndSample",
    "FlowLog",
]


@dataclass(slots=True)
class DataPacketRecord:
    """One wire transmission of a data segment."""

    transmission_id: int
    seq: int
    send_time: float
    arrival_time: Optional[float] = None
    dropped: bool = False
    is_retransmission: bool = False
    in_timeout_recovery: bool = False
    subflow_id: int = 0

    @property
    def lost(self) -> bool:
        """True only for packets the channel dropped — a packet still in
        flight when the simulation horizon is reached is not lost."""
        return self.dropped

    @property
    def latency(self) -> Optional[float]:
        """One-way delivery time, or None when lost (paper Fig. 1 marks
        these at -1)."""
        if self.arrival_time is None:
            return None
        return self.arrival_time - self.send_time


@dataclass(slots=True)
class AckRecord:
    """One wire transmission of an acknowledgement."""

    transmission_id: int
    ack_seq: int
    send_time: float
    arrival_time: Optional[float] = None
    dropped: bool = False
    is_duplicate: bool = False
    subflow_id: int = 0

    @property
    def lost(self) -> bool:
        """True only for ACKs the channel dropped (not in-flight ones)."""
        return self.dropped

    @property
    def latency(self) -> Optional[float]:
        if self.arrival_time is None:
            return None
        return self.arrival_time - self.send_time


@dataclass(slots=True)
class TimeoutRecord:
    """One retransmission-timer expiry at the sender."""

    time: float
    seq: int
    backoff_exponent: int
    rto_value: float
    sequence_index: int  # which timeout sequence (recovery phase) this belongs to


@dataclass(slots=True)
class RecoveryPhaseRecord:
    """One timeout-recovery phase: first RTO until the resuming ACK.

    The paper's Section III-B quantities map directly:
    ``duration`` (≈5.05 s HSR vs 0.65 s stationary),
    ``retransmissions``/``retransmissions_lost`` (in-recovery loss rate
    ≈27.26%), ``timeouts`` (length of the timeout sequence, E[R]).
    """

    start_time: float
    end_time: Optional[float] = None
    timeouts: int = 0
    retransmissions: int = 0
    retransmissions_lost: int = 0

    @property
    def complete(self) -> bool:
        return self.end_time is not None

    @property
    def duration(self) -> Optional[float]:
        if self.end_time is None:
            return None
        return self.end_time - self.start_time

    @property
    def loss_rate(self) -> Optional[float]:
        if self.retransmissions == 0:
            return None
        return self.retransmissions_lost / self.retransmissions


@dataclass(frozen=True, slots=True)
class CwndSample:
    """A (time, cwnd) point with the congestion phase at that instant."""

    time: float
    cwnd: float
    phase: str  # "slow_start" | "congestion_avoidance" | "fast_recovery" | "timeout_recovery"


@dataclass(slots=True)
class FlowLog:
    """Everything observable about one simulated flow."""

    data_packets: List[DataPacketRecord] = field(default_factory=list)
    acks: List[AckRecord] = field(default_factory=list)
    timeouts: List[TimeoutRecord] = field(default_factory=list)
    recovery_phases: List[RecoveryPhaseRecord] = field(default_factory=list)
    cwnd_samples: List[CwndSample] = field(default_factory=list)
    delivered_payloads: int = 0  # unique data sequence numbers that reached the receiver
    duplicate_payloads: int = 0  # extra copies received (spurious-timeout evidence)
    # transmission id -> record, for the link callbacks that mark
    # arrivals and drops; dropped by seal() once the flow has ended
    _by_transmission: Dict[int, DataPacketRecord] = field(
        default_factory=dict, compare=False, repr=False
    )
    _ack_by_transmission: Dict[int, AckRecord] = field(
        default_factory=dict, compare=False, repr=False
    )

    def __getstate__(self) -> tuple:
        # The transmission indexes are recording scaffolding, not
        # observables: a pickle never carries them, so a sealed log and
        # one still being recorded pickle alike.
        return (
            self.data_packets,
            self.acks,
            self.timeouts,
            self.recovery_phases,
            self.cwnd_samples,
            self.delivered_payloads,
            self.duplicate_payloads,
        )

    def __setstate__(self, state: tuple) -> None:
        (
            self.data_packets,
            self.acks,
            self.timeouts,
            self.recovery_phases,
            self.cwnd_samples,
            self.delivered_payloads,
            self.duplicate_payloads,
        ) = state
        self._by_transmission = {}
        self._ack_by_transmission = {}

    def seal(self) -> None:
        """Drop the transmission indexes once the flow has ended.

        No arrival or drop can be recorded after the simulator stops,
        and the indexes hold a dict entry per record — memory the
        finished log no longer needs.
        """
        self._by_transmission.clear()
        self._ack_by_transmission.clear()

    # -- recording ----------------------------------------------------

    def record_data_send(self, record: DataPacketRecord) -> None:
        self.data_packets.append(record)
        self._by_transmission[record.transmission_id] = record

    def record_data_arrival(self, transmission_id: int, time: float) -> None:
        self._by_transmission[transmission_id].arrival_time = time

    def record_data_drop(self, transmission_id: int) -> None:
        self._by_transmission[transmission_id].dropped = True

    def record_ack_send(self, record: AckRecord) -> None:
        self.acks.append(record)
        self._ack_by_transmission[record.transmission_id] = record

    def record_ack_arrival(self, transmission_id: int, time: float) -> None:
        self._ack_by_transmission[transmission_id].arrival_time = time

    def record_ack_drop(self, transmission_id: int) -> None:
        self._ack_by_transmission[transmission_id].dropped = True

    def record_cwnd(self, time: float, cwnd: float, phase: str) -> None:
        self.cwnd_samples.append(CwndSample(time=time, cwnd=cwnd, phase=phase))

    # -- summary statistics -------------------------------------------

    @property
    def data_sent(self) -> int:
        return len(self.data_packets)

    @property
    def data_lost(self) -> int:
        return sum(1 for record in self.data_packets if record.lost)

    @property
    def acks_sent(self) -> int:
        return len(self.acks)

    @property
    def acks_lost(self) -> int:
        return sum(1 for record in self.acks if record.lost)

    @property
    def data_loss_rate(self) -> float:
        """Lifetime data loss rate p_d (0.0 for an idle flow)."""
        return self.data_lost / self.data_sent if self.data_sent else 0.0

    @property
    def ack_loss_rate(self) -> float:
        """Lifetime ACK loss rate p_a."""
        return self.acks_lost / self.acks_sent if self.acks_sent else 0.0

    def completed_recovery_phases(self) -> List[RecoveryPhaseRecord]:
        return [phase for phase in self.recovery_phases if phase.complete]

    # -- columnar wire form -------------------------------------------

    def to_columns(self) -> Tuple[Dict[str, object], bytes]:
        """``(meta, block)``: the log as a JSON-native dict and a byte
        block of columns (see the module docstring for the layout).

        Raises :class:`TypeError` for a value of the wrong type in a
        column (an ``int`` among float64 times, a ``bool`` among
        int64 ids) and :class:`OverflowError` for an int outside int64:
        either would come back changed.
        """
        parts: List[bytes] = []
        _encode_records(self.data_packets, _DATA_COLUMNS, parts)
        _encode_records(self.acks, _ACK_COLUMNS, parts)
        samples = self.cwnd_samples
        parts.append(_pack("d", _values(samples, "time", _FLOAT), "time"))
        parts.append(_pack("d", _values(samples, "cwnd", _FLOAT), "cwnd"))
        phases = _values(samples, "phase", _STR)
        table = list(dict.fromkeys(phases))
        if len(table) > 256:
            raise ValueError(f"{len(table)} cwnd phase names; at most 256 fit a byte")
        index = {name: position for position, name in enumerate(table)}
        parts.append(bytes(map(index.__getitem__, phases)))
        meta = {
            "counts": [len(self.data_packets), len(self.acks), len(samples)],
            "phases": table,
            "timeouts": list(map(_TIMEOUT_ROW, self.timeouts)),
            "recovery_phases": list(map(_PHASE_ROW, self.recovery_phases)),
            "delivered_payloads": self.delivered_payloads,
            "duplicate_payloads": self.duplicate_payloads,
        }
        return meta, b"".join(parts)

    @staticmethod
    def columns_size(meta: Dict[str, object]) -> int:
        """Bytes of the column block that ``meta``'s counts describe."""
        data, acks, samples = meta["counts"]
        return (
            data * _DATA_COLUMNS.record_size
            + acks * _ACK_COLUMNS.record_size
            + samples * _CWND_RECORD_SIZE
        )

    @classmethod
    def from_columns(cls, meta: Dict[str, object], block) -> "FlowLog":
        """The log :meth:`to_columns` encoded, record for record.

        Records are built positionally and each phase name is one
        interned ``str``, so the result pickles byte-identical to the
        original.  The restored log is sealed: it has no transmission
        indexes.
        """
        view = memoryview(block)
        expected = cls.columns_size(meta)
        if len(view) != expected:
            raise ValueError(
                f"column block holds {len(view)} bytes; its counts describe "
                f"{expected}"
            )
        data, acks, samples = meta["counts"]
        # The records are acyclic, so a collector pass over them frees
        # nothing; left running, their allocation would trigger repeated
        # full passes over every object the process already holds (over
        # half the decode time in a campaign holding earlier logs).
        collecting = gc.isenabled()
        gc.disable()
        try:
            data_packets, offset = _decode_records(view, 0, data, _DATA_COLUMNS)
            ack_records, offset = _decode_records(view, offset, acks, _ACK_COLUMNS)
            times, offset = _unpack("d", view, offset, samples)
            cwnds, offset = _unpack("d", view, offset, samples)
            names = [sys.intern(name) for name in meta["phases"]]
            phases = list(map(names.__getitem__, view[offset:]))
            return cls(
                data_packets=data_packets,
                acks=ack_records,
                timeouts=[TimeoutRecord(*row) for row in meta["timeouts"]],
                recovery_phases=[
                    RecoveryPhaseRecord(*row) for row in meta["recovery_phases"]
                ],
                cwnd_samples=_cwnd_samples(times, cwnds, phases),
                delivered_payloads=meta["delivered_payloads"],
                duplicate_payloads=meta["duplicate_payloads"],
            )
        finally:
            if collecting:
                gc.enable()


# -- column codec ---------------------------------------------------------

_LITTLE_ENDIAN = sys.byteorder == "little"
_INT = frozenset({int})
_FLOAT = frozenset({float})
_OPTIONAL_FLOAT = frozenset({float, type(None)})
_BOOL = frozenset({bool})
_STR = frozenset({str})
#: flags byte -> 0/1 byte for each bit, for bytes.translate
_BIT = [bytes((value >> bit) & 1 for value in range(256)) for bit in range(8)]
#: float64 time + float64 cwnd + uint8 phase index
_CWND_RECORD_SIZE = 17
_TIMEOUT_ROW = attrgetter(*(f.name for f in fields(TimeoutRecord)))
_PHASE_ROW = attrgetter(*(f.name for f in fields(RecoveryPhaseRecord)))


@dataclass(frozen=True)
class _RecordColumns:
    """How one record type splits into columns.

    The block holds the int64 columns, then the float64 ones, then the
    optional float64 ones, then one flags byte per record: bit ``i``
    for the ``i``-th optional field being present, then one bit per
    bool field.
    """

    record: type
    ints: Tuple[str, ...]
    floats: Tuple[str, ...]
    optional: Tuple[str, ...]
    flags: Tuple[str, ...]

    @property
    def record_size(self) -> int:
        return 8 * (len(self.ints) + len(self.floats) + len(self.optional)) + 1

    @property
    def order(self) -> Tuple[str, ...]:
        return tuple(f.name for f in fields(self.record))


_DATA_COLUMNS = _RecordColumns(
    record=DataPacketRecord,
    ints=("transmission_id", "seq", "subflow_id"),
    floats=("send_time",),
    optional=("arrival_time",),
    flags=("dropped", "is_retransmission", "in_timeout_recovery"),
)
_ACK_COLUMNS = _RecordColumns(
    record=AckRecord,
    ints=("transmission_id", "ack_seq", "subflow_id"),
    floats=("send_time",),
    optional=("arrival_time",),
    flags=("dropped", "is_duplicate"),
)


def _values(records: list, name: str, allowed: frozenset) -> list:
    """One field of every record; TypeError unless each value's type
    is exactly one of ``allowed`` (subclasses would not survive)."""
    values = list(map(attrgetter(name), records))
    found = set(map(type, values))
    if not found <= allowed:
        wrong = ", ".join(sorted(kind.__name__ for kind in found - allowed))
        expected = ", ".join(sorted(kind.__name__ for kind in allowed))
        raise TypeError(
            f"FlowLog field {name!r} holds {wrong}; its column stores only {expected}"
        )
    return values


def _pack(code: str, values: list, name: str) -> bytes:
    try:
        column = array(code, values)
    except OverflowError:
        raise OverflowError(
            f"FlowLog field {name!r} holds an int outside int64"
        ) from None
    if not _LITTLE_ENDIAN:
        column.byteswap()
    return column.tobytes()


def _unpack(code: str, view: memoryview, offset: int, count: int) -> Tuple[list, int]:
    end = offset + 8 * count
    column = array(code)
    column.frombytes(view[offset:end])
    if not _LITTLE_ENDIAN:
        column.byteswap()
    return column.tolist(), end


def _encode_records(records: list, layout: _RecordColumns, parts: List[bytes]) -> None:
    for name in layout.ints:
        parts.append(_pack("q", _values(records, name, _INT), name))
    for name in layout.floats:
        parts.append(_pack("d", _values(records, name, _FLOAT), name))
    bits: List[bytes] = []
    for name in layout.optional:
        values = _values(records, name, _OPTIONAL_FLOAT)
        present = bytes(map(is_not, values, repeat(None)))
        for position in compress(range(len(values)), map(not_, present)):
            values[position] = 0.0
        parts.append(_pack("d", values, name))
        bits.append(present)
    for name in layout.flags:
        bits.append(bytes(_values(records, name, _BOOL)))
    # Every byte of a bit column is 0 or 1, so shifting the whole column
    # as one integer never carries into the neighbouring byte.
    flags = 0
    for shift, column in enumerate(bits):
        flags |= int.from_bytes(column, "little") << shift
    parts.append(flags.to_bytes(len(records), "little"))


def _cwnd_samples(times: list, cwnds: list, phases: list) -> List[CwndSample]:
    # CwndSample is frozen, so its __init__ sets each field through
    # object.__setattr__; writing the slots directly builds the same
    # objects in under half the time.
    samples = list(map(object.__new__, repeat(CwndSample, len(times))))
    for name, values in (("time", times), ("cwnd", cwnds), ("phase", phases)):
        for _ in map(CwndSample.__dict__[name].__set__, samples, values):
            pass
    return samples


def _decode_records(
    view: memoryview, offset: int, count: int, layout: _RecordColumns
) -> Tuple[list, int]:
    columns: Dict[str, list] = {}
    for code, names in (("q", layout.ints), ("d", layout.floats + layout.optional)):
        for name in names:
            columns[name], offset = _unpack(code, view, offset, count)
    flags = bytes(view[offset : offset + count])
    for bit, name in enumerate(layout.optional):
        values = columns[name]
        for position in compress(range(count), map(not_, flags.translate(_BIT[bit]))):
            values[position] = None
    for bit, name in enumerate(layout.flags, start=len(layout.optional)):
        columns[name] = list(map(bool, flags.translate(_BIT[bit])))
    records = list(map(layout.record, *(columns[name] for name in layout.order)))
    return records, offset + count
