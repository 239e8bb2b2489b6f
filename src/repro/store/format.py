"""Result serialisation: FlowOutcome ↔ store payload, exactly.

The store persists everything needed to reconstruct a successful
:class:`~repro.exec.executor.FlowOutcome` *byte-identically*: the built
:class:`~repro.simulator.connection.ConnectionConfig`, the complete
:class:`~repro.simulator.metrics.FlowLog`, the flow duration, the
counters the log does not record (the engine's event accounting and
the sender's RTO arm count), plus the retry bookkeeping (failures, attempt count) so a cached flow replays
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
from typing import Dict, List

from repro.exec.executor import FlowOutcome
from repro.exec.spec import FlowSpec
from repro.robustness.campaign import FlowFailure
from repro.simulator.connection import ConnectionConfig, FlowResult
from repro.simulator.metrics import FlowLog

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

#: the :class:`FlowResult` counters stored under ``result.counters``.
#: An entry whose ``counters`` is null restores them as 0; every other
#: per-flow counter is read off the restored log.
_RESULT_COUNTERS = ("events_scheduled", "events_fired", "events_cancelled", "rto_armed")


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
    meta, block = result.log.to_columns()
    return {
        "flow_id": outcome.spec.flow_id,
        "attempts": outcome.attempts,
        "failures": [asdict(failure) for failure in outcome.failures],
        "result": {
            "config": asdict(result.config),
            "duration": result.duration,
            "counters": {name: getattr(result, name) for name in _RESULT_COUNTERS},
            "log": meta,
        },
        COLUMNS: block,
    }


def decode_outcome(
    payload: Dict[str, object], *, index: int, spec: FlowSpec
) -> FlowOutcome:
    """Reconstruct the FlowOutcome a stored payload encodes.

    ``spec`` is the *requesting* spec: its metadata drives trace
    re-capture.
    """
    result_data = payload["result"]
    counters = result_data.get("counters") or {}
    result = FlowResult(
        config=ConnectionConfig(**result_data["config"]),
        log=FlowLog.from_columns(result_data["log"], payload.get(COLUMNS, b"")),
        duration=result_data["duration"],
        **{name: int(counters.get(name, 0)) for name in _RESULT_COUNTERS},
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
