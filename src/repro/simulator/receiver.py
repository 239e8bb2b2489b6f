"""The TCP receiver: cumulative ACKs, delayed ACK, reordering buffer.

Behavioural notes tied to the paper:

* **Cumulative acknowledgement** — every ACK carries the next expected
  sequence number, so one surviving ACK per round is enough to move the
  sender's window (paper Fig. 11: the ACK marked *a* "helps to avoid
  the spurious packet retransmission").
* **Delayed ACK** — one ACK per ``b`` in-order packets (plus a timer so
  the last packets of a burst are not acknowledged late), which is what
  makes ACKs scarce and ACK burst loss plausible (Section V-A).
* **Duplicate-payload detection** — a segment whose sequence number was
  already delivered increments ``duplicate_payloads``; the trace layer
  uses original-copy arrivals to classify timeouts as spurious exactly
  the way the paper does.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.simulator.channel import Link
from repro.simulator.engine import EventHandle, Simulator
from repro.simulator.metrics import FlowLog
from repro.simulator.packet import AckSegment, Segment
from repro.util.errors import ConfigurationError

__all__ = ["Receiver"]

#: Delayed-ACK timer.  RFC 1122 allows up to 500 ms, but real stacks keep
#: it well below the minimum RTO (Linux uses ~40 ms) so a straggling
#: segment's delayed ACK cannot race the retransmission timer; we default
#: to 50 ms for the same reason.
DEFAULT_DELACK_TIMEOUT = 0.05


class Receiver:
    """Receives data segments and emits (possibly delayed) cumulative ACKs."""

    __slots__ = (
        "_simulator",
        "_ack_link",
        "_log",
        "b",
        "delack_timeout",
        "subflow_id",
        "expected_seq",
        "_out_of_order",
        "_delivered",
        "_pending_unacked",
        "_delack_timer",
        "_ack_transmission_counter",
    )

    def __init__(
        self,
        simulator: Simulator,
        ack_link: Link,
        log: FlowLog,
        b: int = 2,
        delack_timeout: float = DEFAULT_DELACK_TIMEOUT,
        subflow_id: int = 0,
    ) -> None:
        if b < 1:
            raise ConfigurationError(f"b must be >= 1, got {b}")
        if delack_timeout <= 0.0:
            raise ConfigurationError(
                f"delack_timeout must be positive, got {delack_timeout}"
            )
        self._simulator = simulator
        self._ack_link = ack_link
        self._log = log
        self.b = b
        self.delack_timeout = delack_timeout
        self.subflow_id = subflow_id

        self.expected_seq = 0
        self._out_of_order: Set[int] = set()
        self._delivered: Set[int] = set()
        self._pending_unacked = 0
        self._delack_timer: Optional[EventHandle] = None
        self._ack_transmission_counter = 0

    # -- data path ------------------------------------------------------

    def on_data(self, segment: Segment, arrival_time: float) -> None:
        """Handle an arriving data segment (the Link's deliver callback)."""
        self._log.record_data_arrival(segment.transmission_id, arrival_time)
        seq = segment.seq
        if seq in self._delivered:
            # Second copy of an already-received payload: the smoking
            # gun of a spurious retransmission (paper Section III-B.2).
            self._log.duplicate_payloads += 1
            self._send_ack(is_duplicate=False)  # re-ACK to resynchronise
            return
        self._delivered.add(seq)
        if seq == self.expected_seq:
            self._advance_in_order()
            self._pending_unacked += 1
            if self._pending_unacked >= self.b:
                self._send_ack(is_duplicate=False)
            else:
                self._arm_delack_timer()
        elif seq > self.expected_seq:
            self._out_of_order.add(seq)
            self._log.delivered_payloads += 1
            # Out-of-order data: immediate duplicate ACK (fast-retransmit
            # signal for the sender).
            self._send_ack(is_duplicate=True)
        else:
            # seq < expected but not in delivered: cannot happen since
            # delivery is tracked per seq; defensive re-ACK.
            self._send_ack(is_duplicate=False)

    def _advance_in_order(self) -> None:
        self._log.delivered_payloads += 1
        self.expected_seq += 1
        while self.expected_seq in self._out_of_order:
            self._out_of_order.discard(self.expected_seq)
            self.expected_seq += 1

    # -- ACK path --------------------------------------------------------

    def _arm_delack_timer(self) -> None:
        if self._delack_timer is None:
            self._delack_timer = self._simulator.schedule(
                self.delack_timeout, self._on_delack_timer
            )

    def _on_delack_timer(self) -> None:
        self._delack_timer = None
        if self._pending_unacked > 0:
            self._send_ack(is_duplicate=False)

    def _send_ack(self, is_duplicate: bool) -> None:
        if self._delack_timer is not None:
            self._delack_timer.cancel()
            self._delack_timer = None
        self._pending_unacked = 0
        now = self._simulator.now
        tid = self._ack_transmission_counter
        self._ack_transmission_counter = tid + 1
        ack_seq = self.expected_seq
        subflow_id = self.subflow_id
        self._log.record_ack_send(tid, ack_seq, now, is_duplicate, subflow_id)
        self._ack_link.send(AckSegment(ack_seq, tid, now, is_duplicate, subflow_id))
