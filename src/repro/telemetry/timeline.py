"""Timeline: phase-tagged event records for diagnosis, read off a flow.

The HSR measurement studies diagnose pathologies from *when* things
happen relative to the congestion phase — a burst of ACK drops during
``timeout_recovery`` reads completely differently from the same burst
in ``congestion_avoidance``.  :func:`timeline` lists a finished flow's
notable events as :class:`TimelineEvent` records, each tagged with the
sender phase current at that instant, built from the log's columns and
timeout rows.

Per-packet send/delivery events are left out by default (a 60 s HSR
flow transmits tens of thousands of packets); pass
``record_packets=True`` for short diagnostic runs that want them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, List

from repro.telemetry.counters import spurious_flags

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.connection import FlowResult

__all__ = ["TimelineEvent", "timeline"]

#: The phase every flow starts in (mirrors the sender's initial state).
_INITIAL_PHASE = "slow_start"

#: Order of simultaneous events: a phase change first, then what
#: happened in the phase it entered (a timeout before the sends it
#: triggers, a send before its own drop).
_RANK = {"phase": 0, "rto_fired": 1, "send": 2, "drop": 3, "delivery": 4}


@dataclass(frozen=True, slots=True)
class TimelineEvent:
    """One notable occurrence, tagged with the congestion phase."""

    time: float
    kind: str  # "phase" | "rto_fired" | "drop" | "send" | "delivery"
    detail: str
    phase: str


def timeline(result: "FlowResult", record_packets: bool = False) -> List[TimelineEvent]:
    """The flow's phase changes, timeouts and drops, in time order.

    A ``"phase"`` event is tagged with the phase it leaves; every other
    event with the phase the cwnd log shows at its instant, counting
    the phase changes at that same instant as before it.  A drop is
    timed at its send, where the channel decides it.
    ``record_packets`` adds one ``"send"`` per transmission and one
    ``"delivery"`` per arrival.
    """
    log = result.log
    samples = log.cwnd_samples
    names = samples.phases
    indexes = bytes(samples.phase)
    # (time, kind, detail, departing phase or None)
    rows = []
    for row in range(1, len(indexes)):
        if indexes[row] != indexes[row - 1]:
            old, new = names[indexes[row - 1]], names[indexes[row]]
            detail = f"{old} -> {new} cwnd={samples.cwnd[row]:.6g}"
            rows.append((samples.time[row], "phase", detail, old))
    for timeout, spurious in zip(log.timeouts, spurious_flags(log)):
        tag = "spurious" if spurious else "genuine"
        detail = f"seq={timeout.seq} {tag} backoff={timeout.backoff_exponent}"
        rows.append((timeout.time, "rto_fired", detail, None))
    for direction, columns in (("data", log.data_packets), ("ack", log.acks)):
        send_time = columns.column("send_time")
        if record_packets:
            rows += [(time, "send", direction, None) for time in send_time.tolist()]
        dropped = send_time[columns.mask("dropped")].tolist()
        rows += [(time, "drop", direction, None) for time in dropped]
        if record_packets:
            arrived = columns.column("arrival_time")[columns.mask("arrival_time")]
            rows += [(time, "delivery", direction, None) for time in arrived.tolist()]
    rows.sort(key=lambda row: (row[0], _RANK[row[1]]))

    def phase_at(time: float) -> str:
        sample = bisect_right(samples.time, time) - 1
        return names[indexes[sample]] if sample >= 0 else _INITIAL_PHASE

    return [
        TimelineEvent(time, kind, detail, phase if phase is not None else phase_at(time))
        for time, kind, detail, phase in rows
    ]
