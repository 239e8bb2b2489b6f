"""Result serialisation: FlowOutcome ↔ store payload, exactly.

The store persists everything needed to reconstruct a successful
:class:`~repro.exec.executor.FlowOutcome` *byte-identically*: the built
:class:`~repro.simulator.connection.ConnectionConfig`, the complete
:class:`~repro.simulator.metrics.FlowLog`, the flow duration, the
per-flow telemetry counters when the flow ran instrumented, plus the
retry bookkeeping (failures, attempt count) so a cached flow replays
into a :class:`~repro.robustness.campaign.CampaignReport` exactly as
its live run did.

A payload is a JSON-native dict plus one ``bytes`` value under
:data:`COLUMNS`: the log's column block from
:meth:`FlowLog.to_columns <repro.simulator.metrics.FlowLog.to_columns>`,
whose small dict (counts, phase names, timeouts, recovery phases) sits
at ``payload["result"]["log"]``.  :func:`repro.store.disk.encode_entry`
writes the dict as one JSON line and the block after it verbatim.

Fidelity notes:

* the column codec is exact (see :mod:`repro.simulator.metrics`), and
  the JSON fields round-trip exactly too — Python's JSON writer emits
  the shortest float repr and the reader parses it back to the
  identical IEEE-754 value;
* the flow *trace* is not stored — it is re-captured from the restored
  log and the requesting spec's own metadata, which is also what makes
  one stored simulation reusable under any capture metadata.

Only successful outcomes are stored.  A quarantined flow is worth
retrying on the next campaign run, not worth caching.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, List, Optional

from repro.exec.executor import FlowOutcome
from repro.exec.spec import FlowSpec
from repro.robustness.campaign import FlowFailure
from repro.simulator.connection import ConnectionConfig, FlowResult
from repro.simulator.metrics import FlowLog
from repro.telemetry.counters import COUNTER_NAMES, CountingTelemetry

__all__ = [
    "COLUMNS",
    "SCHEMA_VERSION",
    "column_block_size",
    "decode_outcome",
    "encode_outcome",
]

#: On-disk payload schema.  Bump on any change to the encoding below;
#: ``ResultStore.gc`` drops entries written under older schemas.
#: 2: FlowFailure records gained ``failure_class`` (the retry taxonomy).
#: 3: the log is a column block after the JSON line, not JSON rows.
SCHEMA_VERSION = 3

#: payload key of the log's column block (``bytes``)
COLUMNS = "columns"

#: counters that describe how a result was *obtained*, not what the
#: simulation did — never persisted, always reassigned on restore.
#: ``worker_crashes``/``deadline_preemptions``/``store_errors`` are
#: supervision-layer provenance: replaying them from a cache hit would
#: claim this run's infrastructure failed when it did not.
_CACHE_COUNTERS = (
    "cache_hit",
    "cache_miss",
    "worker_crashes",
    "deadline_preemptions",
    "store_errors",
)


def column_block_size(payload: Dict[str, object]) -> int:
    """Bytes of column block the payload's log counts describe.

    :class:`ValueError` when the payload carries no readable counts.
    """
    try:
        return FlowLog.columns_size(payload["result"]["log"])
    except (KeyError, TypeError, ValueError) as error:
        raise ValueError(f"payload has no log column counts: {error!r}") from None


def encode_outcome(outcome: FlowOutcome) -> Dict[str, object]:
    """The payload of one *successful* outcome.

    Raises :class:`ValueError` for quarantined outcomes — failure is a
    thing to retry next run, not a thing to cache.
    """
    result = outcome.result
    if result is None or not outcome.ok:
        raise ValueError(
            f"only successful outcomes are storable; {outcome.spec.flow_id!r} "
            "was quarantined"
        )
    counters: Optional[Dict[str, int]] = None
    if isinstance(result.telemetry, CountingTelemetry):
        counters = {
            name: value
            for name, value in result.telemetry.as_dict().items()
            if name not in _CACHE_COUNTERS
        }
    meta, block = result.log.to_columns()
    return {
        "flow_id": outcome.spec.flow_id,
        "attempts": outcome.attempts,
        "failures": [asdict(failure) for failure in outcome.failures],
        "result": {
            "config": asdict(result.config),
            "duration": result.duration,
            "counters": counters,
            "log": meta,
        },
        COLUMNS: block,
    }


def decode_outcome(
    payload: Dict[str, object], *, index: int, spec: FlowSpec
) -> FlowOutcome:
    """Reconstruct the FlowOutcome a stored payload encodes.

    ``spec`` is the *requesting* spec: its metadata drives trace
    re-capture and its ``telemetry`` flag decides whether the restored
    result carries a counter sink.  Restored sinks report
    ``cache_hit=1`` and zero ``cache_miss`` — the counters tell the
    truth about how this result was obtained this run.
    """
    result_data = payload["result"]
    telemetry: Optional[CountingTelemetry] = None
    if spec.telemetry:
        telemetry = CountingTelemetry()
        stored = result_data.get("counters") or {}
        for name in COUNTER_NAMES:
            if name in stored:
                setattr(telemetry, name, int(stored[name]))
        telemetry.cache_hit = 1
        telemetry.cache_miss = 0
    result = FlowResult(
        config=ConnectionConfig(**result_data["config"]),
        log=FlowLog.from_columns(result_data["log"], payload.get(COLUMNS, b"")),
        duration=result_data["duration"],
        telemetry=telemetry,
    )
    trace = None
    if spec.metadata is not None:
        # Validation (when the spec asks for it) already gated the
        # original store write; integrity of the stored bytes is the
        # store's digest check, so re-validating here would only re-run
        # a check that deterministically passes.
        from repro.traces.capture import capture_flow

        trace = capture_flow(result, spec.metadata, validate=False)
    failures: List[FlowFailure] = [
        FlowFailure(**failure) for failure in payload["failures"]
    ]
    return FlowOutcome(
        index=index,
        spec=spec,
        result=result,
        trace=trace,
        failures=failures,
        attempts=int(payload["attempts"]),
    )
