"""Per-flow trace statistics (paper Figs. 1 and 6 plus model inputs).

* :func:`arrival_latency_series` — the Fig.-1 view: for every wire
  transmission in both directions, (send time, delivery latency), with
  lost packets marked at −1 exactly as the paper plots them.
* :func:`estimate_rtt` — matched data-send → covering-ACK round-trip
  samples (what the model consumes as ``RTT``).
* :func:`flow_summary` — one row of headline statistics per flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.traces.events import FlowTrace
from repro.util.stats import mean

__all__ = [
    "LatencyPoint",
    "arrival_latency_series",
    "estimate_rtt",
    "FlowSummary",
    "flow_summary",
]

#: Latency value used to plot lost packets, following the paper's Fig. 1
#: ("we set their time duration to be -1").
LOST_MARKER = -1.0


@dataclass(frozen=True)
class LatencyPoint:
    """One point of the Fig.-1 scatter."""

    send_time: float
    latency: float  # seconds; LOST_MARKER when the packet was dropped
    direction: str  # "data" | "ack"
    lost: bool


def arrival_latency_series(trace: FlowTrace) -> List[LatencyPoint]:
    """Per-transmission delivery latency in send order, both directions."""
    points: List[LatencyPoint] = []
    for direction, records in (("data", trace.data_packets), ("ack", trace.acks)):
        for record in records:
            if not record.lost and record.latency is None:
                # Still in flight when the capture ended: neither
                # delivered nor lost; a real capture has no such rows.
                continue
            points.append(
                LatencyPoint(
                    send_time=record.send_time,
                    latency=LOST_MARKER if record.lost else record.latency,
                    direction=direction,
                    lost=record.lost,
                )
            )
    points.sort(key=lambda point: point.send_time)
    return points


def estimate_rtt(trace: FlowTrace, max_samples: int = 2000) -> Optional[float]:
    """Mean send→covering-ACK round trip over never-retransmitted segments.

    For each sampled first-transmission data packet, the RTT sample is
    the delay until the first ACK *arrival* whose cumulative number
    exceeds the packet's sequence number (Karn's rule keeps
    retransmitted sequence numbers out).  Returns None when no sample
    can be formed (e.g. an all-lost trace).
    """
    packets, acks = trace.data_packets, trace.acks
    arrived = acks.mask("arrival_time")
    ack_times = acks.column("arrival_time")[arrived]
    ack_seqs = acks.column("ack_seq")[arrived]
    if not ack_times.size:
        return None
    order = np.lexsort((ack_seqs, ack_times))  # by arrival, then ack_seq
    arrival_times, covered = ack_times[order], ack_seqs[order]
    # Suffix maximum of ack_seq tells whether any ACK arriving at or
    # after a given index covers a sequence number.
    suffix_max = np.maximum(np.maximum.accumulate(covered[::-1])[::-1], 0)

    seqs = packets.column("seq")
    retransmission = packets.mask("is_retransmission")
    step = max(1, len(packets) // max_samples)
    sampled = seqs[::step]
    keep = ~(
        retransmission[::step]
        | np.isin(sampled, seqs[retransmission])
        | packets.mask("dropped")[::step]
    )
    sampled, sends = sampled[keep], packets.column("send_time")[::step][keep]
    last = len(arrival_times) - 1
    lo = np.searchsorted(arrival_times, sends, side="left")
    # A sample needs a covering ACK arriving at or after its send.
    formed = (lo <= last) & (suffix_max[np.minimum(lo, last)] > sampled)
    lo, sampled, sends = lo[formed], sampled[formed], sends[formed]
    # Binary search for the first such ACK, every sample in lockstep.
    hi = np.full_like(lo, last)
    active = lo < hi
    while active.any():
        mid = (lo + hi) // 2
        covers = covered[mid] > sampled
        hi = np.where(active & covers, mid, hi)
        lo = np.where(active & ~covers, mid + 1, lo)
        active = lo < hi
    if not lo.size:
        return None
    return mean((arrival_times[lo] - sends).tolist())


@dataclass(frozen=True)
class FlowSummary:
    """Headline statistics of one flow (one row of the dataset)."""

    flow_id: str
    provider: str
    scenario: str
    throughput: float
    data_loss_rate: float
    ack_loss_rate: float
    rtt: Optional[float]
    timeouts: int
    recovery_phases: int
    duplicate_payloads: int
    transferred_bytes: int


def flow_summary(trace: FlowTrace) -> FlowSummary:
    """Reduce a trace to its headline row."""
    return FlowSummary(
        flow_id=trace.metadata.flow_id,
        provider=trace.metadata.provider,
        scenario=trace.metadata.scenario,
        throughput=trace.throughput,
        data_loss_rate=trace.data_loss_rate,
        ack_loss_rate=trace.ack_loss_rate,
        rtt=estimate_rtt(trace),
        timeouts=len(trace.timeouts),
        recovery_phases=len(trace.completed_recovery_phases()),
        duplicate_payloads=trace.duplicate_payloads,
        transferred_bytes=trace.transferred_bytes,
    )
