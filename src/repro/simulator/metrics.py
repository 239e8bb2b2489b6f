"""Per-flow instrumentation shared by the sender and receiver.

The :class:`FlowLog` records every wire transmission in both
directions, every timeout, every timeout-recovery phase and the
congestion-window trajectory — the complete transport-layer observable
set the paper extracts from its wireshark captures.  The trace layer
(:mod:`repro.traces`) consumes these observables verbatim.

The per-packet observables live as typed columns from the first packet
on, never as one object per packet: :class:`DataPacketColumns`,
:class:`AckColumns` and :class:`CwndColumns` hold an ``array('q')`` per
integer field, an ``array('d')`` per time, and one flags ``bytearray``
with a byte per row carrying the booleans and whether each optional
time is present (``None`` rides on that bit, never on NaN; an absent
time's slot holds 0.0).  Cwnd phases are a byte per sample indexing a
table of phase names in first-appearance order.  A transmission id is
its row: the n-th transmission recorded in each direction has id
``n - 1``, so marking an arrival or a drop is one indexed store.

Each column set is also a read-only sequence of its records
(:class:`DataPacketRecord`, :class:`AckRecord`, :class:`CwndSample`):
``len``, indexing and iteration build a record only when asked and
keep none, and the records are frozen, so a write to one raises rather
than silently missing the column.  Analyses read whole columns
instead — :meth:`_RecordColumns.column` and :meth:`_RecordColumns.mask`
hand them to numpy.

A log leaves memory in one form, its *columns*
(:meth:`FlowLog.to_columns` / :meth:`FlowLog.from_columns`): the result
store writes them and the process pool pickles them.  The block is the
columns' little-endian bytes back to back — per record kind the int64
columns, the float64 ones, the optional float64 ones, the flags — then
the cwnd times, values and phase indexes.  Everything else (the counts,
the phase-name table, timeouts, recovery phases and payload tallies)
goes in a small JSON-native dict.  Encoding is a join of ``tobytes``
and decoding a ``frombytes`` per column, so the round trip is exact.
A column coerces what it stores at record time (an ``int`` time is
kept as a float); a value it cannot hold at all — an int outside
int64, a non-number — raises, naming the field, and leaves the log as
it was.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, fields
from itertools import repeat
from operator import attrgetter, is_not
from typing import ClassVar, Dict, Iterator, List, Optional, Tuple

import numpy as np

__all__ = [
    "DataPacketRecord",
    "AckRecord",
    "TimeoutRecord",
    "RecoveryPhaseRecord",
    "CwndSample",
    "DataPacketColumns",
    "AckColumns",
    "CwndColumns",
    "FlowLog",
]


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


# -- columns --------------------------------------------------------------

_LITTLE_ENDIAN = sys.byteorder == "little"
#: flags byte -> 0/1 byte for each bit, for bytes.translate
_BIT = [bytes((value >> bit) & 1 for value in range(256)) for bit in range(8)]
#: float64 time + float64 cwnd + uint8 phase index
_CWND_RECORD_SIZE = 17
_TIMEOUT_ROW = attrgetter(*(f.name for f in fields(TimeoutRecord)))
_PHASE_ROW = attrgetter(*(f.name for f in fields(RecoveryPhaseRecord)))


@dataclass(frozen=True)
class _Layout:
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
    def numeric(self) -> Tuple[str, ...]:
        """The number columns, in block order."""
        return self.ints + self.floats + self.optional

    @property
    def bits(self) -> Dict[str, int]:
        """Flags-byte bit of each optional and bool field."""
        return {name: bit for bit, name in enumerate(self.optional + self.flags)}

    @property
    def record_size(self) -> int:
        return 8 * len(self.numeric) + 1

    @property
    def order(self) -> Tuple[str, ...]:
        return tuple(f.name for f in fields(self.record))


def _to_bytes(column: array) -> bytes:
    if not _LITTLE_ENDIAN:
        column = array(column.typecode, column)
        column.byteswap()
    return column.tobytes()


def _from_bytes(code: str, view: memoryview, offset: int, count: int) -> Tuple[array, int]:
    end = offset + 8 * count
    column = array(code)
    column.frombytes(view[offset:end])
    if not _LITTLE_ENDIAN:
        column.byteswap()
    return column, end


def _present(value: float, bit: int) -> Optional[float]:
    return value if bit else None


def _refused(error: Exception, name: str) -> Exception:
    """``error`` (an OverflowError or TypeError from a column) naming
    the field whose column refused the value."""
    return type(error)(f"FlowLog field {name!r} cannot hold the value: {error}")


class _RecordColumns(Sequence):
    """Records of one kind as typed columns, read as a sequence of records.

    Subclasses name one slot per column: each field of ``layout``'s
    numeric columns, plus ``flags``.  Writing goes to the columns
    (``columns.send_time[row] = ...``); the records are read-only
    snapshots.
    """

    __slots__ = ()
    layout: ClassVar[_Layout]
    _bits: ClassVar[Dict[str, int]]

    def __init__(self) -> None:
        for name in self.layout.ints:
            setattr(self, name, array("q"))
        for name in self.layout.floats + self.layout.optional:
            setattr(self, name, array("d"))
        self.flags = bytearray()

    @classmethod
    def of(cls, rows) -> "_RecordColumns":
        """``rows`` itself when it already is such columns, else the
        columns of an iterable of records (copied once)."""
        return rows if isinstance(rows, cls) else cls.from_records(rows)

    @classmethod
    def from_records(cls, records) -> "_RecordColumns":
        records = list(records)
        columns = cls()
        layout = cls.layout
        for name in layout.numeric:
            values = map(attrgetter(name), records)
            if name in layout.optional:
                values = (0.0 if value is None else value for value in values)
            try:
                getattr(columns, name).extend(values)
            except (OverflowError, TypeError) as error:
                raise _refused(error, name) from None
        flags = 0
        for name, shift in cls._bits.items():
            values = map(attrgetter(name), records)
            if name in layout.optional:
                values = map(is_not, values, repeat(None))
            # Every byte is 0 or 1, so shifting the whole column as one
            # integer never carries into the neighbouring byte.
            flags |= int.from_bytes(bytes(map(bool, values)), "little") << shift
        columns.flags[:] = flags.to_bytes(len(records), "little")
        return columns

    # -- the block ------------------------------------------------------

    def blocks(self) -> List[bytes]:
        """This kind's part of the column block, column by column."""
        parts = [_to_bytes(getattr(self, name)) for name in self.layout.numeric]
        parts.append(bytes(self.flags))
        return parts

    @classmethod
    def from_block(
        cls, view: memoryview, offset: int, count: int
    ) -> Tuple["_RecordColumns", int]:
        columns = cls.__new__(cls)
        for code, names in (("q", cls.layout.ints), ("d", cls.layout.floats + cls.layout.optional)):
            for name in names:
                column, offset = _from_bytes(code, view, offset, count)
                setattr(columns, name, column)
        columns.flags = bytearray(view[offset : offset + count])
        return columns, offset + count

    def _undo_row(self) -> str:
        """Drop a half-appended row; the name of the first column the
        row did not reach (the one that refused its value)."""
        rows = len(self.flags)
        failed = "flags"
        for name in reversed(self.layout.numeric):
            column = getattr(self, name)
            if len(column) == rows:
                failed = name
            del column[rows:]
        return failed

    # -- whole columns ----------------------------------------------------

    def bit(self, name: str) -> bytearray:
        """A 0/1 byte per row: flag ``name`` set (for an optional
        field: present)."""
        return self.flags.translate(_BIT[self._bits[name]])

    def is_set(self, name: str, row: int) -> bool:
        return bool(self.flags[row] >> self._bits[name] & 1)

    def mask(self, name: str) -> np.ndarray:
        """:meth:`bit` as a numpy bool array."""
        return np.frombuffer(self.bit(name), dtype=np.bool_)

    def column(self, name: str) -> np.ndarray:
        """A numpy copy of number column ``name`` (a copy, so the
        column stays free to grow)."""
        return np.array(getattr(self, name))

    # -- the sequence of records -----------------------------------------

    def __len__(self) -> int:
        return len(self.flags)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._sliced(index))
        flags = self.flags[index]
        layout = self.layout
        values = {name: getattr(self, name)[index] for name in layout.ints + layout.floats}
        for name, bit in self._bits.items():
            if name in layout.optional:
                values[name] = getattr(self, name)[index] if flags >> bit & 1 else None
            else:
                values[name] = bool(flags >> bit & 1)
        return layout.record(**values)

    def __iter__(self) -> Iterator:
        layout = self.layout
        flags = bytes(self.flags)
        values = {name: getattr(self, name) for name in layout.ints + layout.floats}
        for name, bit in self._bits.items():
            present = flags.translate(_BIT[bit])
            if name in layout.optional:
                values[name] = map(_present, getattr(self, name), present)
            else:
                values[name] = map(bool, present)
        return map(layout.record, *(values[name] for name in layout.order))

    def _sliced(self, index: slice) -> "_RecordColumns":
        part = self.__new__(type(self))
        for name in self.__slots__:
            setattr(part, name, getattr(self, name)[index])
        return part

    def __eq__(self, other) -> bool:
        if type(other) is type(self):
            return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self)} rows)"


class DataPacketColumns(_RecordColumns):
    """The data transmissions of one flow, as columns."""

    __slots__ = ("transmission_id", "seq", "subflow_id", "send_time", "arrival_time", "flags")
    layout = _Layout(
        record=DataPacketRecord,
        ints=("transmission_id", "seq", "subflow_id"),
        floats=("send_time",),
        optional=("arrival_time",),
        flags=("dropped", "is_retransmission", "in_timeout_recovery"),
    )
    _bits = layout.bits


class AckColumns(_RecordColumns):
    """The ACK transmissions of one flow, as columns."""

    __slots__ = ("transmission_id", "ack_seq", "subflow_id", "send_time", "arrival_time", "flags")
    layout = _Layout(
        record=AckRecord,
        ints=("transmission_id", "ack_seq", "subflow_id"),
        floats=("send_time",),
        optional=("arrival_time",),
        flags=("dropped", "is_duplicate"),
    )
    _bits = layout.bits


#: flags-byte values the recording path writes directly
_ARRIVED = 1 << DataPacketColumns._bits["arrival_time"]
_DROPPED = 1 << DataPacketColumns._bits["dropped"]
_RETRANSMISSION = 1 << DataPacketColumns._bits["is_retransmission"]
_IN_RECOVERY = 1 << DataPacketColumns._bits["in_timeout_recovery"]
_DUPLICATE = 1 << AckColumns._bits["is_duplicate"]
# (an ACK's arrival and drop bits are the data packet's: both layouts
# lead with arrival_time, then dropped)


class CwndColumns(Sequence):
    """The congestion-window trajectory of one flow, as columns:
    ``time`` and ``cwnd`` (float64) and ``phase``, a byte per sample
    indexing ``phases``, the phase names in first-appearance order."""

    __slots__ = ("time", "cwnd", "phase", "phases", "_index")

    def __init__(self, phases: Tuple[str, ...] = ()) -> None:
        self.time = array("d")
        self.cwnd = array("d")
        self.phase = bytearray()
        self.phases: List[str] = [sys.intern(name) for name in phases]
        self._index = {name: position for position, name in enumerate(self.phases)}

    @classmethod
    def of(cls, samples) -> "CwndColumns":
        """``samples`` itself when it already is cwnd columns, else the
        columns of an iterable of :class:`CwndSample` (copied once)."""
        if isinstance(samples, cls):
            return samples
        samples = list(samples)
        names = [sample.phase for sample in samples]
        table = list(dict.fromkeys(names))
        if len(table) > 256:
            raise ValueError(f"{len(table)} cwnd phase names; at most 256 fit a byte")
        columns = cls(table)
        for name in ("time", "cwnd"):
            try:
                getattr(columns, name).extend(map(attrgetter(name), samples))
            except (OverflowError, TypeError) as error:
                raise _refused(error, name) from None
        columns.phase[:] = bytes(map(columns._index.__getitem__, names))
        return columns

    def _new_phase(self, phase: str) -> int:
        """Table index of a first-seen phase name; refuses a 257th
        name, dropping the row's time and cwnd."""
        index = len(self.phases)
        if index == 256:
            self._undo_row()
            raise ValueError("257 cwnd phase names; at most 256 fit a byte")
        self.phases.append(phase)
        self._index[phase] = index
        return index

    def _undo_row(self) -> str:
        """Drop a half-appended row's time and cwnd; the name of the
        column that refused its value."""
        rows = len(self.phase)
        failed = "time" if len(self.time) == rows else "cwnd"
        del self.time[rows:], self.cwnd[rows:]
        return failed

    def blocks(self) -> List[bytes]:
        return [_to_bytes(self.time), _to_bytes(self.cwnd), bytes(self.phase)]

    @classmethod
    def from_block(cls, view: memoryview, offset: int, count: int, phases) -> "CwndColumns":
        columns = cls(phases)
        columns.time, offset = _from_bytes("d", view, offset, count)
        columns.cwnd, offset = _from_bytes("d", view, offset, count)
        columns.phase = bytearray(view[offset : offset + count])
        if columns.phase and max(columns.phase) >= len(columns.phases):
            raise ValueError(
                f"cwnd phase index {max(columns.phase)} outside the "
                f"{len(columns.phases)}-name table"
            )
        return columns

    def __len__(self) -> int:
        return len(self.phase)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(
                map(CwndSample, self.time[index], self.cwnd[index],
                    map(self.phases.__getitem__, self.phase[index]))
            )
        return CwndSample(self.time[index], self.cwnd[index], self.phases[self.phase[index]])

    def __iter__(self) -> Iterator[CwndSample]:
        return map(
            CwndSample, self.time, self.cwnd, map(self.phases.__getitem__, bytes(self.phase))
        )

    def __eq__(self, other) -> bool:
        if type(other) is type(self):
            return (
                self.time == other.time
                and self.cwnd == other.cwnd
                and list(map(self.phases.__getitem__, self.phase))
                == list(map(other.phases.__getitem__, other.phase))
            )
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"CwndColumns({len(self)} rows)"


# -- the log --------------------------------------------------------------


class FlowLog:
    """Everything observable about one simulated flow.

    ``data_packets``, ``acks`` and ``cwnd_samples`` are column sets
    (read-only sequences of records, see the module docstring); the
    constructor also takes record lists and converts them once.
    """

    __slots__ = (
        "data_packets",
        "acks",
        "timeouts",
        "recovery_phases",
        "cwnd_samples",
        "delivered_payloads",  # unique data sequence numbers that reached the receiver
        "duplicate_payloads",  # extra copies received (spurious-timeout evidence)
    )

    def __init__(
        self,
        data_packets=(),
        acks=(),
        timeouts: Optional[List[TimeoutRecord]] = None,
        recovery_phases: Optional[List[RecoveryPhaseRecord]] = None,
        cwnd_samples=(),
        delivered_payloads: int = 0,
        duplicate_payloads: int = 0,
    ) -> None:
        self.data_packets = DataPacketColumns.of(data_packets)
        self.acks = AckColumns.of(acks)
        self.timeouts = [] if timeouts is None else timeouts
        self.recovery_phases = [] if recovery_phases is None else recovery_phases
        self.cwnd_samples = CwndColumns.of(cwnd_samples)
        self.delivered_payloads = delivered_payloads
        self.duplicate_payloads = duplicate_payloads

    def __eq__(self, other) -> bool:
        if type(other) is not FlowLog:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"FlowLog({len(self.data_packets)} data, {len(self.acks)} acks, "
            f"{len(self.timeouts)} timeouts, {len(self.recovery_phases)} recovery "
            f"phases, {len(self.cwnd_samples)} cwnd samples)"
        )

    def __reduce__(self):
        # A log pickles as its columns, the same form the store writes.
        return FlowLog.from_columns, self.to_columns()

    # -- recording ----------------------------------------------------

    def record_data_send(
        self,
        transmission_id: int,
        seq: int,
        send_time: float,
        is_retransmission: bool = False,
        in_timeout_recovery: bool = False,
        subflow_id: int = 0,
    ) -> None:
        """A data segment went on the wire; ``transmission_id`` must be
        its row, the number of data transmissions recorded before it."""
        packets = self.data_packets
        if transmission_id != len(packets.flags):
            raise ValueError(
                f"data transmission id {transmission_id} is not the next row "
                f"{len(packets.flags)}"
            )
        try:
            packets.transmission_id.append(transmission_id)
            packets.seq.append(seq)
            packets.subflow_id.append(subflow_id)
            packets.send_time.append(send_time)
            packets.arrival_time.append(0.0)
        except (OverflowError, TypeError) as error:
            raise _refused(error, packets._undo_row()) from None
        packets.flags.append(
            (_RETRANSMISSION if is_retransmission else 0)
            | (_IN_RECOVERY if in_timeout_recovery else 0)
        )

    def record_data_arrival(self, transmission_id: int, time: float) -> None:
        packets = self.data_packets
        packets.arrival_time[transmission_id] = time
        packets.flags[transmission_id] |= _ARRIVED

    def record_data_drop(self, transmission_id: int) -> None:
        self.data_packets.flags[transmission_id] |= _DROPPED

    def record_ack_send(
        self,
        transmission_id: int,
        ack_seq: int,
        send_time: float,
        is_duplicate: bool = False,
        subflow_id: int = 0,
    ) -> None:
        """An ACK went on the wire; ``transmission_id`` must be its row."""
        acks = self.acks
        if transmission_id != len(acks.flags):
            raise ValueError(
                f"ack transmission id {transmission_id} is not the next row "
                f"{len(acks.flags)}"
            )
        try:
            acks.transmission_id.append(transmission_id)
            acks.ack_seq.append(ack_seq)
            acks.subflow_id.append(subflow_id)
            acks.send_time.append(send_time)
            acks.arrival_time.append(0.0)
        except (OverflowError, TypeError) as error:
            raise _refused(error, acks._undo_row()) from None
        acks.flags.append(_DUPLICATE if is_duplicate else 0)

    def record_ack_arrival(self, transmission_id: int, time: float) -> None:
        acks = self.acks
        acks.arrival_time[transmission_id] = time
        acks.flags[transmission_id] |= _ARRIVED

    def record_ack_drop(self, transmission_id: int) -> None:
        self.acks.flags[transmission_id] |= _DROPPED

    def record_cwnd(self, time: float, cwnd: float, phase: str) -> None:
        samples = self.cwnd_samples
        try:
            samples.time.append(time)
            samples.cwnd.append(cwnd)
        except (OverflowError, TypeError) as error:
            raise _refused(error, samples._undo_row()) from None
        index = samples._index.get(phase)
        if index is None:
            index = samples._new_phase(phase)
        samples.phase.append(index)

    # -- summary statistics -------------------------------------------

    @property
    def data_sent(self) -> int:
        return len(self.data_packets)

    @property
    def data_lost(self) -> int:
        return self.data_packets.bit("dropped").count(1)

    @property
    def acks_sent(self) -> int:
        return len(self.acks)

    @property
    def acks_lost(self) -> int:
        return self.acks.bit("dropped").count(1)

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
        block of columns (see the module docstring for the layout)."""
        samples = self.cwnd_samples
        meta = {
            "counts": [len(self.data_packets), len(self.acks), len(samples)],
            "phases": list(samples.phases),
            "timeouts": list(map(_TIMEOUT_ROW, self.timeouts)),
            "recovery_phases": list(map(_PHASE_ROW, self.recovery_phases)),
            "delivered_payloads": self.delivered_payloads,
            "duplicate_payloads": self.duplicate_payloads,
        }
        parts = self.data_packets.blocks() + self.acks.blocks() + samples.blocks()
        return meta, b"".join(parts)

    @staticmethod
    def columns_size(meta: Dict[str, object]) -> int:
        """Bytes of the column block that ``meta``'s counts describe."""
        data, acks, samples = meta["counts"]
        return (
            data * DataPacketColumns.layout.record_size
            + acks * AckColumns.layout.record_size
            + samples * _CWND_RECORD_SIZE
        )

    @classmethod
    def from_columns(cls, meta: Dict[str, object], block) -> "FlowLog":
        """The log :meth:`to_columns` encoded, column for column.

        Each phase name is one interned ``str``, so the result pickles
        byte-identical to the original.
        """
        view = memoryview(block)
        expected = cls.columns_size(meta)
        if len(view) != expected:
            raise ValueError(
                f"column block holds {len(view)} bytes; its counts describe "
                f"{expected}"
            )
        data, acks, samples = meta["counts"]
        packets, offset = DataPacketColumns.from_block(view, 0, data)
        ack_columns, offset = AckColumns.from_block(view, offset, acks)
        return cls(
            data_packets=packets,
            acks=ack_columns,
            timeouts=[TimeoutRecord(*row) for row in meta["timeouts"]],
            recovery_phases=[RecoveryPhaseRecord(*row) for row in meta["recovery_phases"]],
            cwnd_samples=CwndColumns.from_block(view, offset, samples, meta["phases"]),
            delivered_payloads=meta["delivered_payloads"],
            duplicate_payloads=meta["duplicate_payloads"],
        )
