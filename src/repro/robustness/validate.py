"""Post-capture trace validation: quarantine bad flows, keep the stats clean.

A single corrupt :class:`~repro.traces.events.FlowTrace` — timestamps
running backwards, an arrival recorded for a dropped packet, an ACK
acknowledging data that was never sent — silently poisons every
campaign-level statistic built on top of it (Table I volumes, the
Fig. 10 deviation CDF, loss-rate fits).  :func:`validate_trace` checks
the structural invariants every honest capture satisfies and returns
the list of violations; the campaign layer quarantines offenders with
those reasons instead of aggregating them.

The module deliberately duck-types the trace (and imports nothing from
:mod:`repro.traces`) so it sits below the trace layer in the import
graph and :mod:`repro.traces.capture` can call into it.  It reads the
per-packet observables as whole columns
(:class:`~repro.simulator.metrics.DataPacketColumns`), never as records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.traces.events import FlowTrace

__all__ = ["ValidationResult", "validate_trace", "check_trace"]

#: Slack for "did this happen within the flow's duration" checks; jitter
#: never schedules anything this far past the horizon.
_TIME_SLACK = 1e-9


@dataclass
class ValidationResult:
    """Outcome of validating one trace."""

    flow_id: str
    issues: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues


def _check_wire_records(columns, duration: float, kind: str, issues: List[str]) -> int:
    """Shared per-transmission invariants; returns the max seq/ack seen.

    Every check runs as a numpy mask over the columns; only rows where
    some mask fires are walked, to word their messages in row order.
    """
    if not len(columns):
        return -1
    seqs = columns.column("seq" if kind == "data" else "ack_seq")
    sends = columns.column("send_time")
    arrivals = columns.column("arrival_time")
    arrived = columns.mask("arrival_time")
    dropped = columns.mask("dropped")
    # previous[i]: the latest send time before row i (fmax, like
    # Python's max, never lets a NaN become the running maximum)
    previous = np.fmax.accumulate(np.concatenate(([-np.inf], sends[:-1])))
    horizon = duration + _TIME_SLACK
    checks = (
        seqs < 0,
        sends < 0.0,
        sends < previous - _TIME_SLACK,
        sends > horizon,
        dropped & arrived,
        arrived & (arrivals < sends - _TIME_SLACK),
        arrived & (arrivals > horizon),
    )
    for index in np.flatnonzero(np.logical_or.reduce(checks)).tolist():
        label = f"{kind}[{index}]"
        seq, send_time = int(seqs[index]), float(sends[index])
        arrival_time = float(arrivals[index])
        fired = [bool(check[index]) for check in checks]
        if fired[0]:
            issues.append(f"{label}: negative sequence number {seq}")
        if fired[1]:
            issues.append(f"{label}: negative send time {send_time}")
        if fired[2]:
            issues.append(
                f"{label}: send time {send_time} precedes previous "
                f"{float(previous[index])} (records must be in send order)"
            )
        if fired[3]:
            issues.append(f"{label}: sent at {send_time} after flow end {duration}")
        if fired[4]:
            issues.append(
                f"{label}: marked lost but has an arrival time {arrival_time}"
            )
        if fired[5]:
            issues.append(
                f"{label}: arrived at {arrival_time} before it was sent at {send_time}"
            )
        if fired[6]:
            issues.append(
                f"{label}: arrived at {arrival_time} after flow end {duration}"
            )
    return max(-1, int(seqs.max()))


def validate_trace(trace: "FlowTrace") -> List[str]:
    """Return every structural violation found in ``trace`` (empty = valid).

    Checks, in order: metadata sanity, per-direction wire-record
    invariants (monotone send order, causal arrivals, loss-flag
    consistency, horizon bounds), seqno/ACK consistency (cumulative ACKs
    never acknowledge unsent data), payload-counter consistency, and
    timeout/recovery-phase bounds.
    """
    issues: List[str] = []
    duration = trace.metadata.duration
    if duration <= 0.0:
        issues.append(f"metadata: non-positive duration {duration}")
        return issues  # every time-bound check below would be noise

    max_seq = _check_wire_records(trace.data_packets, duration, "data", issues)
    _check_wire_records(trace.acks, duration, "ack", issues)

    # Cumulative ACKs acknowledge the next expected byte, so an ack_seq
    # may exceed the highest *data* seq by at most one packet.
    ack_seqs = trace.acks.column("ack_seq")
    for index in np.flatnonzero(ack_seqs > max_seq + 1).tolist():
        issues.append(
            f"ack[{index}]: acknowledges seq {int(ack_seqs[index])} but highest "
            f"data seq sent is {max_seq}"
        )

    if trace.delivered_payloads < 0:
        issues.append(f"delivered_payloads is negative: {trace.delivered_payloads}")
    if trace.duplicate_payloads < 0:
        issues.append(f"duplicate_payloads is negative: {trace.duplicate_payloads}")
    arrivals = trace.data_packets.bit("arrival_time").count(1)
    if trace.delivered_payloads + trace.duplicate_payloads > arrivals:
        issues.append(
            f"payload counters ({trace.delivered_payloads} delivered + "
            f"{trace.duplicate_payloads} duplicate) exceed the {arrivals} "
            f"recorded arrivals"
        )

    previous_timeout = -float("inf")
    for index, timeout in enumerate(trace.timeouts):
        if not 0.0 <= timeout.time <= duration + _TIME_SLACK:
            issues.append(
                f"timeout[{index}]: fired at {timeout.time}, outside "
                f"[0, {duration}]"
            )
        if timeout.time < previous_timeout - _TIME_SLACK:
            issues.append(
                f"timeout[{index}]: fired at {timeout.time}, before the "
                f"previous timeout at {previous_timeout}"
            )
        previous_timeout = max(previous_timeout, timeout.time)

    for index, phase in enumerate(trace.recovery_phases):
        if phase.end_time is not None and phase.end_time < phase.start_time:
            issues.append(
                f"recovery[{index}]: ends at {phase.end_time} before it "
                f"starts at {phase.start_time}"
            )
        if phase.retransmissions_lost > phase.retransmissions:
            issues.append(
                f"recovery[{index}]: {phase.retransmissions_lost} lost "
                f"retransmissions out of only {phase.retransmissions} sent"
            )
    return issues


def check_trace(trace: "FlowTrace") -> ValidationResult:
    """Validate ``trace`` and wrap the outcome in a :class:`ValidationResult`."""
    return ValidationResult(
        flow_id=trace.metadata.flow_id, issues=validate_trace(trace)
    )
