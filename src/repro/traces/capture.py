"""Adapter: simulator output → dataset trace."""

from __future__ import annotations

from repro.robustness.validate import validate_trace
from repro.simulator.connection import FlowResult
from repro.traces.events import FlowMetadata, FlowTrace
from repro.util.errors import TraceValidationError

__all__ = ["capture_flow"]


def capture_flow(
    result: FlowResult, metadata: FlowMetadata, validate: bool = False
) -> FlowTrace:
    """Package a simulated flow's log as a dataset trace.

    The column sets are shared (not copied) — a log's columns are not
    written after a simulation completes, and campaign generation
    creates hundreds of traces.

    With ``validate=True`` the trace is checked against the structural
    invariants in :mod:`repro.robustness.validate` and a
    :class:`~repro.util.errors.TraceValidationError` is raised (listing
    every violation) instead of returning a corrupt trace — the
    campaign layer turns that into a quarantine.
    """
    log = result.log
    trace = FlowTrace(
        metadata=metadata,
        data_packets=log.data_packets,
        acks=log.acks,
        timeouts=log.timeouts,
        recovery_phases=log.recovery_phases,
        delivered_payloads=log.delivered_payloads,
        duplicate_payloads=log.duplicate_payloads,
    )
    if validate:
        issues = validate_trace(trace)
        if issues:
            raise TraceValidationError(metadata.flow_id, issues)
    return trace
