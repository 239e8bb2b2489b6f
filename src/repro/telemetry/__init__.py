"""repro.telemetry: per-flow and campaign counters, read off finished flows.

The paper's whole contribution rests on transport-layer observables —
per-packet loss, timeout-recovery behaviour, spurious RTOs, phase
trajectories — which it derives from packet captures after the fact.
This subpackage does the same over the simulator's columnar
:class:`~repro.simulator.metrics.FlowLog`; nothing observes a flow
while it runs:

* :func:`summarise` — one flow's :class:`FlowTelemetrySummary`
  (events scheduled / fired / cancelled, packets sent / dropped /
  delivered per direction, RTO armed / fired / spurious, cwnd phase
  transitions), from the log plus the four counts the
  :class:`~repro.simulator.connection.FlowResult` carries.
* :func:`timeline` — phase-tagged :class:`TimelineEvent` records for
  diagnosis.
* :class:`CampaignTelemetry` — per-flow summaries plus how each result
  was obtained (cache hit or miss, worker crashes), merged in spec
  order into one canonical-JSON artefact, byte-identical between
  serial and process-pool backends and between fresh and cached runs.
* :class:`ProgressReporter` — the opt-in ``--progress`` lines; with
  ``--telemetry`` the experiments CLI installs a :class:`CampaignTelemetry`
  aggregate as the ``telemetry`` field of :func:`~repro.context.run_context`.

Summarise one flow with ``summarise(run_flow(...))``, or a campaign
via ``Executor(telemetry=True)`` /
``generate_dataset(..., telemetry=True)``.
"""

from repro.telemetry.campaign import CampaignTelemetry
from repro.telemetry.counters import (
    COUNTER_NAMES,
    FlowTelemetrySummary,
    summarise,
)
from repro.telemetry.progress import ProgressReporter
from repro.telemetry.timeline import TimelineEvent, timeline

__all__ = [
    "COUNTER_NAMES",
    "CampaignTelemetry",
    "FlowTelemetrySummary",
    "ProgressReporter",
    "TimelineEvent",
    "summarise",
    "timeline",
]
