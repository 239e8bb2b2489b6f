"""Per-flow counters, read off a finished flow.

:func:`summarise` turns one :class:`~repro.simulator.connection.FlowResult`
into a :class:`FlowTelemetrySummary`: deterministic, wall-clock-free
integers that the campaign layer aggregates, so they are byte-identical
between serial and process-pool runs of the same flows and between a
fresh run and a result-store hit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Mapping

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.connection import FlowResult
    from repro.simulator.metrics import FlowLog

__all__ = ["COUNTER_NAMES", "FlowTelemetrySummary", "summarise"]

#: Every per-flow counter, in the order summaries report them.
COUNTER_NAMES = (
    "events_scheduled",
    "events_fired",
    "events_cancelled",
    "packets_sent",
    "packets_dropped",
    "packets_delivered",
    "data_sent",
    "data_dropped",
    "data_delivered",
    "acks_sent",
    "acks_dropped",
    "acks_delivered",
    "rto_armed",
    "rto_fired",
    "rto_spurious",
    "cwnd_phase_transitions",
    # always 0 for a flow with a result: a tripped watchdog leaves none
    "budget_trips",
    # how the executor obtained the flow's result under a result store:
    # exactly one of these is 1 per store-backed flow, both 0 otherwise
    "cache_hit",
    "cache_miss",
    # supervision-layer provenance, read by the parent off the outcome:
    # how many of this flow's executions died with the worker or were
    # preempted past their deadline, and whether it ran uncached
    # because the store's circuit breaker was open
    "worker_crashes",
    "deadline_preemptions",
    "store_errors",
)


@dataclass(frozen=True)
class FlowTelemetrySummary:
    """One flow's final counters, keyed by the flow id: the value the
    :class:`~repro.telemetry.campaign.CampaignTelemetry` aggregator
    merges in spec order."""

    flow_id: str
    counters: Mapping[str, int] = field(default_factory=dict)

    def get(self, name: str) -> int:
        return int(self.counters.get(name, 0))


def summarise(result: "FlowResult", flow_id: str = "flow") -> FlowTelemetrySummary:
    """One finished flow's counters, read off its log and result.

    Packet counters are row counts of the log's data and ACK columns
    (``dropped`` flag, ``arrival_time`` presence); ``rto_fired`` counts
    the timeout rows and ``cwnd_phase_transitions`` the adjacent phase
    changes of the cwnd samples.  ``rto_spurious`` is the simulator's
    ground truth: the latest copy of the timed-out segment on the
    sender's own subflow, sent before the RTO's retransmission, was not
    dropped.  The engine and RTO-arm counts ride on the result.

    Counters about how a campaign obtained the result (``cache_*``,
    ``store_errors``, ``worker_crashes``, ``deadline_preemptions``) and
    ``budget_trips`` (a tripped flow has no result) are 0 here.
    """
    log = result.log
    data, acks = log.data_packets, log.acks
    data_dropped = data.bit("dropped").count(1)
    data_delivered = data.bit("arrival_time").count(1)
    acks_dropped = acks.bit("dropped").count(1)
    acks_delivered = acks.bit("arrival_time").count(1)
    phases = np.frombuffer(log.cwnd_samples.phase, dtype=np.uint8)
    counters = dict.fromkeys(COUNTER_NAMES, 0)
    counters.update(
        events_scheduled=result.events_scheduled,
        events_fired=result.events_fired,
        events_cancelled=result.events_cancelled,
        packets_sent=len(data) + len(acks),
        packets_dropped=data_dropped + acks_dropped,
        packets_delivered=data_delivered + acks_delivered,
        data_sent=len(data),
        data_dropped=data_dropped,
        data_delivered=data_delivered,
        acks_sent=len(acks),
        acks_dropped=acks_dropped,
        acks_delivered=acks_delivered,
        rto_armed=result.rto_armed,
        rto_fired=len(log.timeouts),
        rto_spurious=sum(spurious_flags(log)),
        cwnd_phase_transitions=int(np.count_nonzero(phases[1:] != phases[:-1])),
    )
    return FlowTelemetrySummary(flow_id=flow_id, counters=counters)


#: the subflow the sender itself transmits on; an MPTCP backup copy of
#: a timeout retransmission rides the next one
_PRIMARY_SUBFLOW = 0


def spurious_flags(log: "FlowLog") -> List[bool]:
    """Per timeout row: was the timed-out segment's latest primary copy
    not dropped?

    The copy is the last one logged before the RTO's own
    retransmission, which is sent at the timeout's instant.  This is
    not :func:`repro.traces.timeouts.classify_timeouts`: that applies
    the paper's capture-side rule (some copy had arrived by the
    timeout), which disagrees whenever the latest copy is still in
    flight or an earlier copy arrived and a later one was dropped.
    """
    if not log.timeouts:
        return []
    data = log.data_packets
    seq = data.column("seq")
    primary = data.column("subflow_id") == _PRIMARY_SUBFLOW
    send_time = data.column("send_time")
    dropped = data.mask("dropped")
    flags = []
    for timeout in log.timeouts:
        rows = np.flatnonzero(primary & (seq == timeout.seq))
        own = int(np.searchsorted(send_time[rows], timeout.time, side="left"))
        flags.append(bool(own) and not dropped[rows[own - 1]])
    return flags
