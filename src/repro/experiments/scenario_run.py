"""Scenario-driven campaigns: run any scenario document as a workload.

The figure drivers each hard-code their environment; this module is the
generic counterpart the ``--scenario`` flag and the ``sweep`` command
expose — point the runner at a scenario *reference* (a bundled name or
a document file) and it runs a seeded flow campaign there, under all
the usual run context (watchdog, chaos, telemetry, store,
supervision).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.context import current_run_context
from repro.exec import Executor, FlowSpec
from repro.experiments.registry import ExperimentResult
from repro.hsr.scenario import Scenario
from repro.robustness.faults import with_faults
from repro.scenarios import resolve_scenario_ref
from repro.scenarios.compile import compile_document
from repro.scenarios.document import ScenarioDocument
from repro.util.stats import mean
from repro.util.units import mps_to_kmh, pps_to_mbps

__all__ = ["run_scenario_campaign", "run_scenario_sweep", "scenario_specs"]


def _effective_scenario(document: ScenarioDocument) -> Scenario:
    scenario = compile_document(document)
    plan = current_run_context().faults
    if plan is not None and not plan.is_noop():
        scenario = with_faults(scenario, plan)
    return scenario


def scenario_specs(
    document: ScenarioDocument,
    *,
    flows: int,
    duration: float,
    seed: int,
    cc: str = "reno",
    cc_params: Optional[object] = None,
) -> List[FlowSpec]:
    """Independently seeded FlowSpecs for one scenario campaign.

    Seeds depend only on (``seed``, flow index), so the batch fans out
    over workers — or reruns against a result store — byte-identically.
    ``cc``/``cc_params`` pick the congestion control (a :mod:`repro.cc`
    registry name) every flow of the campaign runs.
    """
    scenario = _effective_scenario(document)
    return [
        FlowSpec(
            scenario=scenario,
            duration=duration,
            seed=seed + 1009 * index,
            cc=cc,
            cc_params=cc_params,
            flow_id=f"scenario/{document.name}/{index}",
        )
        for index in range(flows)
    ]


def _campaign_row(
    document: ScenarioDocument, outcomes: Sequence
) -> dict:
    scenario = compile_document(document)
    results = [
        outcome.result for outcome in outcomes if outcome.result is not None
    ]
    throughputs = [result.throughput for result in results]
    average = mean(throughputs) if throughputs else 0.0
    return {
        "scenario": document.name,
        "speed_kmh": mps_to_kmh(scenario.cruise_speed()),
        "provider": scenario.provider.name,
        "flows": len(outcomes),
        "failed": sum(1 for outcome in outcomes if outcome.result is None),
        "throughput_pps": average,
        "throughput_mbps": pps_to_mbps(average),
        "timeouts": sum(len(result.log.timeouts) for result in results),
        "retransmissions": sum(
            1
            for result in results
            for packet in result.log.data_packets
            if packet.is_retransmission
        ),
    }


def run_scenario_campaign(
    ref: str,
    *,
    flows: int = 4,
    duration: float = 30.0,
    seed: int = 2015,
    workers: Union[int, str] = 1,
) -> ExperimentResult:
    """Run ``flows`` seeded flows in the scenario ``ref`` names."""
    document = resolve_scenario_ref(ref)
    specs = scenario_specs(
        document, flows=flows, duration=duration, seed=seed
    )
    execution = Executor.for_workers(workers).run(specs)
    row = _campaign_row(document, execution.outcomes)
    return ExperimentResult(
        experiment_id=f"scenario:{document.name}",
        title=f"Scenario campaign: {document.name}",
        rows=[row],
        headline={
            "throughput_pps": row["throughput_pps"],
            "throughput_mbps": row["throughput_mbps"],
            "failed_flows": float(row["failed"]),
        },
        notes=document.description,
    )


def run_scenario_sweep(
    refs: Sequence[str],
    *,
    flows: int = 2,
    duration: float = 20.0,
    seed: int = 2015,
    workers: Union[int, str] = 1,
) -> ExperimentResult:
    """One campaign per scenario in ``refs``, as a single comparable table.

    The whole sweep is submitted as one flat batch, so worker fan-out
    crosses scenario boundaries instead of draining one scenario at a
    time.
    """
    documents = [resolve_scenario_ref(ref) for ref in refs]
    specs: List[FlowSpec] = []
    for document in documents:
        specs += scenario_specs(
            document, flows=flows, duration=duration, seed=seed
        )
    execution = Executor.for_workers(workers).run(specs)
    rows = []
    best: Optional[dict] = None
    worst: Optional[dict] = None
    for position, document in enumerate(documents):
        outcomes = execution.outcomes[
            position * flows : (position + 1) * flows
        ]
        row = _campaign_row(document, outcomes)
        rows.append(row)
        if best is None or row["throughput_pps"] > best["throughput_pps"]:
            best = row
        if worst is None or row["throughput_pps"] < worst["throughput_pps"]:
            worst = row
    headline = {}
    if best is not None and worst is not None:
        headline = {
            "scenarios": float(len(documents)),
            "best_pps": best["throughput_pps"],
            "worst_pps": worst["throughput_pps"],
        }
    return ExperimentResult(
        experiment_id="scenario_sweep",
        title=f"Scenario sweep over {len(documents)} scenario(s)",
        rows=rows,
        headline=headline,
        notes=(
            f"best: {best['scenario']}, worst: {worst['scenario']}"
            if best is not None and worst is not None
            else ""
        ),
    )
