"""Campaign-level telemetry: per-flow summaries merged into one artefact.

The executor summarises every successful outcome
(:meth:`CampaignTelemetry.merge_outcome`) and merges the summaries —
**in spec order** — into a :class:`CampaignTelemetry`.  Everything here is wall-clock-free, so the
canonical JSON (:meth:`CampaignTelemetry.to_json`) is byte-identical
between serial and process-pool runs of the same campaign, exactly
like :class:`~repro.robustness.campaign.CampaignReport` next to which
it is reported.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Mapping

from repro.telemetry.counters import COUNTER_NAMES, FlowTelemetrySummary, summarise

if TYPE_CHECKING:  # pragma: no cover - typing only
    # repro.exec imports this package; a runtime import would be circular.
    from repro.exec.executor import FlowOutcome

__all__ = ["CampaignTelemetry"]


@dataclass
class CampaignTelemetry:
    """Aggregated counters across every summarised flow of a campaign."""

    flows: int = 0
    counters: Dict[str, int] = field(default_factory=dict)

    def merge_flow(self, summary: FlowTelemetrySummary) -> None:
        """Fold one flow's counters into the aggregate."""
        self.flows += 1
        counters = self.counters
        for name, value in summary.counters.items():
            counters[name] = counters.get(name, 0) + int(value)

    def merge_outcome(self, outcome: "FlowOutcome") -> None:
        """Fold in one successful outcome: :func:`summarise` of its
        result plus how this run obtained it.

        ``cache_state`` gives ``cache_hit``/``cache_miss``/
        ``store_errors``.  ``worker_crashes`` and
        ``deadline_preemptions`` count the supervisor's failure records,
        except on a store hit: its failures are replayed from the run
        that filled the store, and this run's infrastructure did not
        fail.
        """
        counters = dict(summarise(outcome.result).counters)
        state = outcome.cache_state
        counters["cache_hit"] = int(state == "hit")
        counters["cache_miss"] = int(state in ("miss", "corrupt", "error"))
        counters["store_errors"] = int(state == "error")
        if state != "hit":
            classes = [failure.failure_class for failure in outcome.failures]
            counters["worker_crashes"] = classes.count("worker_crash")
            counters["deadline_preemptions"] = classes.count("deadline")
        self.merge_flow(FlowTelemetrySummary(outcome.spec.flow_id, counters))

    def merge(self, other: "CampaignTelemetry") -> None:
        """Fold another aggregate (e.g. one experiment's) into this one."""
        self.flows += other.flows
        counters = self.counters
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0) + int(value)

    def get(self, name: str) -> int:
        return int(self.counters.get(name, 0))

    # -- rendering ------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Counters in canonical declaration order (zeros included for
        known counters, so the schema is stable across campaigns)."""
        ordered: Dict[str, int] = {
            name: self.get(name) for name in COUNTER_NAMES
        }
        for name in sorted(self.counters):
            if name not in ordered:  # e.g. loaded by from_mapping
                ordered[name] = self.counters[name]
        return {"flows": self.flows, "counters": ordered}

    def to_json(self) -> str:
        """Canonical (sorted-key, compact) JSON — byte-identical across
        backends and reruns with the same seed."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def summary(self) -> str:
        """One line for logs: packets, drops, RTOs, spurious share."""
        packets = self.get("packets_sent")
        dropped = self.get("packets_dropped")
        fired = self.get("rto_fired")
        spurious = self.get("rto_spurious")
        loss = dropped / packets if packets else 0.0
        return (
            f"{self.flows} flows, {packets} packets ({dropped} dropped, "
            f"{loss:.2%}), {fired} RTOs ({spurious} spurious), "
            f"{self.get('events_fired')} engine events"
        )

    @classmethod
    def from_mapping(cls, data: Mapping[str, object]) -> "CampaignTelemetry":
        """Inverse of :meth:`to_dict` (for loading serialised artefacts)."""
        counters = dict(data.get("counters", {}))  # type: ignore[arg-type]
        return cls(
            flows=int(data.get("flows", 0)),  # type: ignore[arg-type]
            counters={name: int(value) for name, value in counters.items()},
        )
