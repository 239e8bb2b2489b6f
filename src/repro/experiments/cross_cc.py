"""Cross-CC sweep — the Table-I campaign once per congestion control.

The paper models Reno "as a first step"; the CC zoo (:mod:`repro.cc`)
asks the follow-up question: how do CUBIC, BBR, Compound, and
Relentless fare in the same HSR channel, and how far does each stray
from the paper's closed forms?  For every selected variant this
experiment reruns the full Table-I scenario matrix (same flow ids,
same seeds — only the ``cc`` field of each :class:`~repro.exec.FlowSpec`
changes), then feeds every flow's *measured* link parameters into the
enhanced model (Eq. 21, with the measured ACK-burst probability) and
the Padhye baseline, reporting the mean deviation rate D (Eq. 22)
per CC.

Expected shape: the window-law variants (NewReno, CUBIC, Compound,
Relentless) land near Reno — window tuning barely moves the needle in
the paper's RTO-dominated channel, which is its point that the HSR
problem is not variant-specific — while BBR's rate-based pacing rides
through random loss and escapes the Reno closed forms entirely; the
deviation column quantifies that gap.

The sweep runs through the executor under the run context, so
``--workers``, ``--chaos``, ``--telemetry``, and ``--store`` all apply;
with a store, a warm rerun serves every flow from cache (the headline
counts hits vs simulated flows).
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cc import describe_cc
from repro.cc import cc_infos as _cc_infos
from repro.core.accuracy import FlowObservation, compare_models
from repro.core.enhanced import ModelOptions, enhanced_throughput, padhye_paper_form
from repro.exec import Executor
from repro.experiments.registry import ExperimentResult, experiment
from repro.traces.correlation import MeasuredInputs, measured_model_inputs
from repro.traces.generator import campaign_specs
from repro.util.stats import mean

__all__ = ["run", "resolve_cc_selection"]

#: campaign shape at scale 1 — mirrors fig10's measurement window with
#: a smaller per-cell flow count (the sweep multiplies it by the number
#: of variants)
_DURATION = 90.0
_FLOW_SCALE = 0.06


def resolve_cc_selection(cc: Optional[str]) -> Tuple[str, ...]:
    """Expand the CLI's ``--cc`` value into registry names.

    ``all`` (or None/empty) selects every registered variant, in
    registration order; otherwise a single name or a comma-separated
    list, each validated against the registry (unknown names raise
    :class:`~repro.util.errors.ConfigurationError` listing what is
    registered).
    """
    if cc is None or cc.strip() in ("", "all"):
        return tuple(info.name for info in _cc_infos())
    names = tuple(name.strip() for name in cc.split(",") if name.strip())
    for name in names:
        describe_cc(name)
    return names


def _model_deviation(
    inputs: Sequence[MeasuredInputs],
) -> Dict[str, Optional[float]]:
    """Mean deviation rate D per model over one CC's measurable flows."""
    if len(inputs) < 2:
        return {"enhanced": None, "padhye": None}
    observations = [
        FlowObservation(
            params=m.params,
            throughput=m.throughput,
            group=m.provider,
            flow_id=m.flow_id,
        )
        for m in inputs
    ]
    burst_by_params = {
        id(obs.params): m.ack_burst_probability
        for obs, m in zip(observations, inputs)
    }

    def enhanced(params) -> float:
        options = ModelOptions(ack_burst_override=burst_by_params[id(params)])
        return enhanced_throughput(params, options).throughput

    def padhye(params) -> float:
        return padhye_paper_form(params).throughput

    comparison = compare_models(
        observations, {"enhanced": enhanced, "padhye": padhye}
    )
    return {
        "enhanced": comparison.mean_deviation("enhanced"),
        "padhye": comparison.mean_deviation("padhye"),
    }


@experiment("cross_cc", "Cross-CC sweep: Table-I campaign per congestion control")
def run(
    scale: float = 1.0,
    seed: int = 2015,
    workers=1,
    cc: str = "all",
) -> ExperimentResult:
    selection = resolve_cc_selection(cc)
    executor = Executor.for_workers(workers)
    rows: List[dict] = []
    headline: Dict[str, float] = {}
    hits = simulated = failed = 0
    store_active = False
    for name in selection:
        info = describe_cc(name)
        # Same seeds and flow ids for every variant — per-flow
        # comparisons line up; store keys differ via the cc field.
        specs = campaign_specs(
            seed=seed,
            duration=_DURATION * min(scale, 1.0),
            flow_scale=_FLOW_SCALE * scale,
            cc=name,
        )
        execution = executor.run(specs)
        throughputs = []
        timeouts = []
        inputs: List[MeasuredInputs] = []
        for outcome in execution.outcomes:
            if outcome.cache_state is not None:
                store_active = True
            if outcome.cache_state == "hit":
                hits += 1
            elif outcome.cache_state is not None:
                simulated += 1
            if outcome.result is None:
                failed += 1
                continue
            if outcome.cache_state is None:
                simulated += 1
            throughputs.append(outcome.result.throughput)
            timeouts.append(float(len(outcome.result.log.timeouts)))
            if outcome.trace is not None:
                measured = measured_model_inputs(outcome.trace)
                if measured is not None:
                    inputs.append(measured)
        deviation = _model_deviation(inputs)
        tput = mean(throughputs) if throughputs else 0.0
        rows.append(
            {
                "cc": name,
                "family": info.family,
                "flows": len(execution.outcomes),
                "mean_tput_pps": round(tput, 2),
                "mean_timeouts": round(mean(timeouts), 2) if timeouts else None,
                "enhanced_D_pct": (
                    round(100.0 * deviation["enhanced"], 2)
                    if deviation["enhanced"] is not None
                    else None
                ),
                "padhye_D_pct": (
                    round(100.0 * deviation["padhye"], 2)
                    if deviation["padhye"] is not None
                    else None
                ),
            }
        )
        headline[f"sim_{name}_pps"] = tput
    by_tput = sorted(rows, key=lambda row: row["mean_tput_pps"])
    if rows:
        headline["best_cc_pps"] = by_tput[-1]["mean_tput_pps"]
        headline["worst_cc_pps"] = by_tput[0]["mean_tput_pps"]
    if failed:
        headline["failed_flows"] = float(failed)
    if store_active:
        # Cache accounting goes to stderr, not into the result: a
        # warm-store rerun must stay byte-identical to the cold run.
        print(
            f"cross_cc: store hits={hits} flows simulated={simulated}",
            file=sys.stderr,
        )
    notes = (
        "deviation columns measure each variant's distance from the "
        "Reno-based closed forms; window-law tweaks barely move the "
        "needle in the RTO-dominated HSR channel, while rate-based "
        "pacing (bbr) escapes the Reno model entirely"
    )
    if rows:
        notes += (
            f"; best: {by_tput[-1]['cc']}, worst: {by_tput[0]['cc']}"
        )
    return ExperimentResult(
        experiment_id="cross_cc",
        title="Cross-CC sweep: Table-I campaign per congestion control",
        rows=rows,
        headline=headline,
        notes=notes,
    )
