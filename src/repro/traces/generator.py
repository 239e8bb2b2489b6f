"""Synthetic dataset campaign reproducing Table I.

The paper's dataset: two measurement campaigns on BTR —

* January 2015: 8 trips, one Samsung Note 3 on China Mobile LTE →
  52 flows, 7.73 GB.
* October 2015: 24 trips, a Note 3 on China Mobile plus two Galaxy S4
  on China Unicom / China Telecom 3G → 73 + 65 + 65 flows,
  18.9 + 9.63 + 4.21 GB.

:func:`generate_dataset` regenerates the same structure from the HSR
simulator.  ``flow_scale``/``duration`` shrink the campaign for quick
runs (tests, benchmarks) while keeping the proportions; the defaults
produce the full 255 flows.

Execution is delegated to :mod:`repro.exec`: each flow is described as
a :class:`~repro.exec.FlowSpec` (seeded statelessly per flow index, so
failures never perturb the seeds of the remaining flows) and the batch
runs on an :class:`~repro.exec.Executor` — serially by default, or
across ``workers`` processes with byte-identical traces and report.
The executor supplies the resilience: failed flows are retried with
deterministically reseeded attempts and quarantined (recorded, skipped)
when persistent, and every run returns a
:class:`~repro.robustness.campaign.CampaignReport` on the dataset's
``report`` field — one bad flow can no longer abort a multi-hour
campaign or silently poison its statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

from repro.context import current_run_context, run_context
from repro.exec.executor import Executor
from repro.exec.spec import FlowSpec
from repro.hsr.provider import (
    CHINA_MOBILE,
    CHINA_TELECOM,
    CHINA_UNICOM,
    Provider,
)
from repro.hsr.scenario import Scenario, hsr_scenario, stationary_scenario
from repro.robustness.campaign import CampaignReport, RetryPolicy
from repro.robustness.faults import FaultPlan, with_faults
from repro.robustness.watchdog import Watchdog
from repro.telemetry.campaign import CampaignTelemetry
from repro.traces.events import FlowMetadata, FlowTrace
from repro.util.errors import ConfigurationError
from repro.util.rng import RngStream

__all__ = [
    "CampaignEntry",
    "PAPER_CAMPAIGN",
    "SyntheticDataset",
    "campaign_specs",
    "generate_dataset",
    "generate_stationary_reference",
]


@dataclass(frozen=True)
class CampaignEntry:
    """One row of Table I: a (month, phone, provider) cell."""

    capture_month: str
    trips: int
    phone_model: str
    provider: Provider
    flows: int


#: The paper's Table I, verbatim.
PAPER_CAMPAIGN: Sequence[CampaignEntry] = (
    CampaignEntry("2015-01", 8, "Samsung Note 3", CHINA_MOBILE, 52),
    CampaignEntry("2015-10", 24, "Samsung Note 3", CHINA_MOBILE, 73),
    CampaignEntry("2015-10", 24, "Samsung Galaxy S4", CHINA_UNICOM, 65),
    CampaignEntry("2015-10", 24, "Samsung Galaxy S4", CHINA_TELECOM, 65),
)


@dataclass
class SyntheticDataset:
    """A generated campaign: traces plus the spec that produced them.

    ``report`` records how resiliently the campaign ran (retries,
    quarantined flows, per-failure seeds); a clean run has
    ``report.ok`` true and empty failure lists.
    """

    traces: List[FlowTrace] = field(default_factory=list)
    entries: Sequence[CampaignEntry] = PAPER_CAMPAIGN
    report: CampaignReport = field(default_factory=CampaignReport)
    #: merged per-flow counters (None unless generated with telemetry)
    telemetry: Optional[CampaignTelemetry] = None

    @property
    def flow_count(self) -> int:
        return len(self.traces)

    @property
    def total_bytes(self) -> int:
        return sum(trace.transferred_bytes for trace in self.traces)

    def by_provider(self, provider_name: str) -> List[FlowTrace]:
        return [
            trace
            for trace in self.traces
            if trace.metadata.provider == provider_name
        ]

    def by_scenario(self, scenario: str) -> List[FlowTrace]:
        return [
            trace for trace in self.traces if trace.metadata.scenario == scenario
        ]


def _entry_specs(
    entry: CampaignEntry,
    scenario: Scenario,
    scenario_label: str,
    flows: int,
    duration: float,
    rng: RngStream,
    watchdog: Optional[Watchdog],
    validate: bool,
    cc: str = "reno",
    cc_params: Optional[object] = None,
) -> List[FlowSpec]:
    """FlowSpecs for one Table-I cell.

    Base seeds are derived statelessly per flow index from the campaign
    root stream — the derivation (and hence every trace) is independent
    of execution order, retries, and the worker count.
    """
    specs: List[FlowSpec] = []
    for index in range(flows):
        base_seed = (
            rng.spawn(entry.capture_month, entry.provider.name, index).seed
            & 0x7FFFFFFF
        )
        flow_id = f"{entry.capture_month}/{entry.provider.name}/{index:03d}"
        metadata = FlowMetadata(
            flow_id=flow_id,
            provider=entry.provider.name,
            technology=entry.provider.technology,
            scenario=scenario_label,
            capture_month=entry.capture_month,
            phone_model=entry.phone_model,
            duration=duration,
            seed=base_seed,
        )
        specs.append(
            FlowSpec(
                scenario=scenario,
                duration=duration,
                seed=base_seed,
                cc=cc,
                cc_params=cc_params,
                flow_id=flow_id,
                watchdog=watchdog,
                metadata=metadata,
                validate=validate,
            )
        )
    return specs


def campaign_specs(
    seed: int = 2015,
    duration: float = 60.0,
    flow_scale: float = 1.0,
    entries: Optional[Sequence[CampaignEntry]] = None,
    fault_plan: Optional[FaultPlan] = None,
    watchdog: Optional[Watchdog] = None,
    validate: bool = True,
    cc: str = "reno",
    cc_params: Optional[object] = None,
) -> List[FlowSpec]:
    """The Table-I campaign as a flat FlowSpec list (what
    :func:`generate_dataset` executes); exposed for benchmarks and for
    callers that want to run the batch on their own executor.

    ``cc`` (a :mod:`repro.cc` registry name) and ``cc_params`` select
    the congestion control every flow runs — the cross-CC sweeps of
    :mod:`repro.experiments.cross_cc` rebuild this same campaign once
    per variant.
    """
    if duration <= 0.0:
        raise ConfigurationError(f"duration must be positive, got {duration}")
    if flow_scale <= 0.0:
        raise ConfigurationError(f"flow_scale must be positive, got {flow_scale}")
    campaign = tuple(entries) if entries is not None else PAPER_CAMPAIGN
    if fault_plan is None:
        fault_plan = current_run_context().faults
    rng = RngStream(seed, "dataset")
    specs: List[FlowSpec] = []
    for entry in campaign:
        flows = max(1, round(entry.flows * flow_scale))
        scenario = hsr_scenario(entry.provider)
        if fault_plan is not None and not fault_plan.is_noop():
            scenario = with_faults(scenario, fault_plan)
        specs += _entry_specs(
            entry,
            scenario,
            "hsr",
            flows,
            duration,
            rng,
            watchdog=watchdog,
            validate=validate,
            cc=cc,
            cc_params=cc_params,
        )
    return specs


def generate_dataset(
    seed: int = 2015,
    duration: float = 60.0,
    flow_scale: float = 1.0,
    entries: Optional[Sequence[CampaignEntry]] = None,
    fault_plan: Optional[FaultPlan] = None,
    retry_policy: Optional[RetryPolicy] = None,
    watchdog: Optional[Watchdog] = None,
    validate: bool = True,
    workers: Union[int, str] = 1,
    telemetry: Optional[bool] = None,
    store=None,
    cc: str = "reno",
    cc_params: Optional[object] = None,
) -> SyntheticDataset:
    """Regenerate the Table-I campaign from the HSR simulator.

    ``flow_scale`` multiplies each cell's flow count (minimum 1 per
    cell) so tests and benchmarks can run a miniature campaign with the
    same structure.  ``workers`` > 1 fans the flows out over a process
    pool and ``workers="auto"`` probes the batch and picks serial or
    pool itself — the resulting traces and report are byte-identical
    to a serial run in every mode.

    The campaign is fault-tolerant: per-flow failures (including
    watchdog budget trips and traces rejected by ``validate``) are
    retried under ``retry_policy`` with deterministically reseeded
    attempts, then quarantined, and the returned dataset's ``report``
    names every failure with the exact seed that reproduces it.
    ``fault_plan`` (or the run context's ``faults``, see
    :func:`repro.context.run_context`) injects chaos into every flow's
    channels for stress testing.

    ``telemetry=True`` collects per-flow counters and merges them onto
    the dataset's ``telemetry`` field (byte-identical across worker
    counts); the default ``None`` collects when the run context carries
    a ``telemetry`` aggregate.

    ``store`` (a :class:`~repro.store.ResultStore` or a directory path)
    makes the campaign cache-aware and resumable: completed flows are
    persisted under their content keys, reruns serve them from disk
    without simulating, and a campaign killed midway re-executes only
    the flows still missing — with traces and report byte-identical to
    an uncached run either way.

    ``cc``/``cc_params`` run the whole campaign under a different
    congestion control from the :mod:`repro.cc` registry (flow ids and
    seeds are unchanged, so per-flow comparisons across variants line
    up; the store keys differ, so caches never mix variants).
    """
    campaign = tuple(entries) if entries is not None else PAPER_CAMPAIGN
    specs = campaign_specs(
        seed=seed,
        duration=duration,
        flow_scale=flow_scale,
        entries=campaign,
        fault_plan=fault_plan,
        watchdog=watchdog,
        validate=validate,
        cc=cc,
        cc_params=cc_params,
    )
    executor = Executor.for_workers(
        workers, retry_policy=retry_policy, telemetry=telemetry
    )
    execution = _run_with_store(executor, specs, store)
    return SyntheticDataset(
        traces=execution.traces,
        entries=campaign,
        report=execution.report,
        telemetry=execution.telemetry,
    )


def _run_with_store(executor: Executor, specs: List[FlowSpec], store):
    """Run a batch, cache-wrapping the executor when ``store`` is given.

    An explicit ``store`` argument takes precedence over (and behaves
    exactly like) the run context's ``store``; ``store=None`` keeps the
    context's store rather than clearing it.
    """
    if store is None:
        return executor.run(specs)
    with run_context(store=store):
        return executor.run(specs)


def generate_stationary_reference(
    seed: int = 2016,
    duration: float = 60.0,
    flows_per_provider: int = 10,
    retry_policy: Optional[RetryPolicy] = None,
    watchdog: Optional[Watchdog] = None,
    validate: bool = True,
    workers: Union[int, str] = 1,
    telemetry: Optional[bool] = None,
    store=None,
) -> SyntheticDataset:
    """A stationary companion campaign (for the Fig.-3/6 comparisons)."""
    if duration <= 0.0:
        raise ConfigurationError(f"duration must be positive, got {duration}")
    if flows_per_provider < 1:
        raise ConfigurationError("flows_per_provider must be >= 1")
    rng = RngStream(seed, "stationary-dataset")
    entries = tuple(
        CampaignEntry("2015-10", 1, "Samsung Note 3", provider, flows_per_provider)
        for provider in (CHINA_MOBILE, CHINA_UNICOM, CHINA_TELECOM)
    )
    specs: List[FlowSpec] = []
    for entry in entries:
        scenario = stationary_scenario(entry.provider)
        specs += _entry_specs(
            entry,
            scenario,
            "stationary",
            entry.flows,
            duration,
            rng,
            watchdog=watchdog,
            validate=validate,
        )
    executor = Executor.for_workers(
        workers, retry_policy=retry_policy, telemetry=telemetry
    )
    execution = _run_with_store(executor, specs, store)
    return SyntheticDataset(
        traces=execution.traces,
        entries=entries,
        report=execution.report,
        telemetry=execution.telemetry,
    )
