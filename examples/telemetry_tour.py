"""Telemetry tour: read a flow's and a campaign's counters after the fact.

Three stops:

1. a single HSR flow summarised with :func:`~repro.telemetry.summarise`
   — engine, packet, and RTO counters, read off the finished flow's
   :class:`FlowLog` plus the event counts its result carries;
2. the same flow's :func:`~repro.telemetry.timeline`, which tags every
   drop and RTO with the congestion-control phase it happened in;
3. a miniature campaign with executor-level aggregation, merging
   per-flow counters into one :class:`~repro.telemetry.CampaignTelemetry`.

Nothing observes the simulation while it runs, so counting cannot
perturb it: the counters are a view over what the flow recorded.

Run:  python examples/telemetry_tour.py
"""

from repro import Executor, FlowSpec, hsr_scenario, run_flow, summarise
from repro.telemetry import timeline

SEED = 20150402
DURATION = 12.0

# -- Stop 1: counters of a single flow ---------------------------------
built = hsr_scenario().build(duration=DURATION, seed=SEED)
result = run_flow(built.config, built.data_loss, built.ack_loss, seed=SEED)
summary = summarise(result, "tour/single")

print("Counting a single HSR flow")
print("=" * 60)
for name, value in summary.counters.items():
    print(f"  {name:24s} {value:8d}")

# The packet and RTO counters are the log's own aggregates.
log = result.log
assert summary.get("data_sent") == log.data_sent
assert summary.get("data_dropped") == log.data_lost
assert summary.get("rto_fired") == len(log.timeouts)
print("  (read off the FlowLog — counts agree exactly)")

# -- Stop 2: a phase-tagged timeline -----------------------------------
events = timeline(result)

print("\nPhase-tagged timeline of the same flow")
print("=" * 60)
for kind in ("drop", "rto_fired", "phase"):
    count = sum(1 for event in events if event.kind == kind)
    print(f"  {kind:10s} {count:4d} events")
for event in events:
    if event.kind == "rto_fired":
        print(f"    t={event.time:7.3f}s  RTO in phase {event.phase!r}  ({event.detail})")

# -- Stop 3: campaign aggregation --------------------------------------
specs = [
    FlowSpec(scenario=hsr_scenario(), duration=6.0, seed=seed, flow_id=f"tour/{seed}")
    for seed in (1, 2, 3)
]
execution = Executor(telemetry=True).run(specs)
campaign = execution.telemetry

print("\nCampaign aggregation over 3 flows")
print("=" * 60)
print(f"  {campaign.summary()}")
print(f"  canonical JSON: {campaign.to_json()[:72]}...")
print("\nTakeaway: every counter is a view over the finished flow, so a")
print("campaign served from a result store reports the same numbers.")
