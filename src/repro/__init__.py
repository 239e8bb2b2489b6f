"""repro — reproduction of "Measurement, Modeling, and Analysis of TCP
in High-Speed Mobility Scenarios" (ICDCS 2016).

One import gives the working set of the whole stack::

    import repro

    # closed-form models (the paper's contribution)
    repro.enhanced_throughput(repro.LinkParams(...))

    # one simulated flow and its counters
    result = repro.run_flow(config)
    counters = repro.summarise(result).counters

    # a campaign: specs -> executor -> report (+ merged telemetry)
    execution = repro.Executor(telemetry=True).run(
        [repro.FlowSpec(scenario=repro.Scenario(...), duration=60.0)]
    )

    # the Table-I dataset
    dataset = repro.generate_dataset(flow_scale=0.1, workers="auto")

Layers, bottom to top (each imports only downwards):

* :mod:`repro.util` — seeded RNG streams, statistics, units, errors.
* :mod:`repro.context` — the one ambient :class:`RunContext` (store,
  supervisor policy, watchdog, faults, telemetry, progress) that
  :func:`run_context` installs around a campaign.
* :mod:`repro.telemetry` — counters read off finished flows
  (:func:`summarise`, timelines, campaign aggregation, progress).
* :mod:`repro.simulator` — discrete-event TCP / MPTCP simulator with a
  congestion-control zoo (Reno, NewReno, CUBIC, BBR, Compound,
  Relentless).
* :mod:`repro.cc` — the congestion-control registry: :class:`CCInfo`
  metadata, per-CC tuning dataclasses, ``python -m repro.cc list``.
* :mod:`repro.robustness` — fault injection, watchdogs, retry/quarantine.
* :mod:`repro.exec` — the unified flow-execution pipeline
  (:class:`FlowSpec` → :class:`Executor`, serial/pool byte-identical).
* :mod:`repro.store` — content-addressed flow-result persistence
  (:class:`ResultStore`, resumable campaigns),
  shareable over HTTP (:class:`StoreServer`, :class:`RemoteStore`).
* :mod:`repro.hsr` — high-speed-rail channel/mobility substrate.
* :mod:`repro.scenarios` — scenarios as data: schema-validated
  YAML/JSON documents, a compiler to :class:`Scenario`, the bundled
  scenario library (``python -m repro.scenarios list``).
* :mod:`repro.core` — the enhanced throughput model and baselines.
* :mod:`repro.traces` — trace capture, analysis, synthetic dataset.
* :mod:`repro.experiments` — one driver per paper table/figure.
"""

from repro.cc import (
    CCInfo,
    cc_infos,
    cc_names,
    describe_cc,
    make_sender,
    register_cc,
)
from repro.context import RunContext, current_run_context, run_context
from repro.core import (
    LinkParams,
    ModelOptions,
    ThroughputPrediction,
    compare_models,
    deviation_rate,
    enhanced_throughput,
    mptcp_gain,
    padhye_approx_throughput,
    padhye_full_throughput,
    padhye_paper_form,
)
from repro.exec import (
    ExecutionResult,
    Executor,
    FlowOutcome,
    FlowSpec,
    SupervisorPolicy,
    interrupt_signal,
    simulate_spec,
)
from repro.hsr import (
    HookSpec,
    Scenario,
    driving_scenario,
    hsr_scenario,
    stationary_scenario,
)
from repro.robustness import (
    CampaignReport,
    FaultPlan,
    RetryPolicy,
    Watchdog,
)
from repro.scenarios import (
    ScenarioDocument,
    compile_scenario,
    scenario_names,
)
from repro.simulator import ConnectionConfig, FlowResult, run_flow
from repro.store import (
    RemoteStore,
    ResultStore,
    StoreServer,
    flow_key,
    open_store,
)
from repro.telemetry import CampaignTelemetry, summarise
from repro.traces import (
    SyntheticDataset,
    generate_dataset,
    generate_stationary_reference,
)

__version__ = "1.7.0"

__all__ = [
    "CCInfo",
    "CampaignReport",
    "CampaignTelemetry",
    "ConnectionConfig",
    "ExecutionResult",
    "Executor",
    "FaultPlan",
    "FlowOutcome",
    "FlowResult",
    "FlowSpec",
    "HookSpec",
    "LinkParams",
    "ModelOptions",
    "RemoteStore",
    "ResultStore",
    "RetryPolicy",
    "RunContext",
    "Scenario",
    "ScenarioDocument",
    "StoreServer",
    "SupervisorPolicy",
    "SyntheticDataset",
    "ThroughputPrediction",
    "Watchdog",
    "__version__",
    "cc_infos",
    "cc_names",
    "compare_models",
    "compile_scenario",
    "current_run_context",
    "describe_cc",
    "deviation_rate",
    "driving_scenario",
    "enhanced_throughput",
    "flow_key",
    "generate_dataset",
    "generate_stationary_reference",
    "hsr_scenario",
    "interrupt_signal",
    "make_sender",
    "mptcp_gain",
    "open_store",
    "padhye_approx_throughput",
    "padhye_full_throughput",
    "padhye_paper_form",
    "register_cc",
    "run_context",
    "run_flow",
    "scenario_names",
    "simulate_spec",
    "stationary_scenario",
    "summarise",
]
