"""Packet records exchanged between the TCP sender and receiver.

Segments carry a *transmission id* unique per wire transmission (the
original send and each retransmission of the same sequence number get
distinct ids) so the trace layer can reconstruct exactly which copy of
a packet arrived — the mechanism behind the paper's spurious-timeout
classification ("the receiver will receive two packets with the same
payload").

A packet is created once per wire transmission and dropped by its
terminal callback (the link's drop branch or the consumer's deliver);
nothing downstream keeps it, only the plain-integer ``transmission_id``
recorded in the flow log.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["AckSegment", "Segment"]


@dataclass(slots=True)
class Segment:
    """A data segment of one MSS.

    ``seq`` numbers segments in packets (not bytes) — the model layer
    reasons in MSS units throughout, following the paper.
    """

    seq: int
    transmission_id: int
    send_time: float
    is_retransmission: bool = False
    in_timeout_recovery: bool = False
    subflow_id: int = 0


@dataclass(slots=True)
class AckSegment:
    """A cumulative acknowledgement.

    ``ack_seq`` is the next sequence number the receiver expects; an
    ACK therefore acknowledges every segment below it (TCP's cumulative
    acknowledgement, which is why a single surviving ACK can cancel a
    whole round's worth of losses — paper Fig. 11).
    """

    ack_seq: int
    transmission_id: int
    send_time: float
    is_duplicate: bool = False
    subflow_id: int = 0
