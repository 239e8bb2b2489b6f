"""ACK-loss ↔ timeout correlation (paper Fig. 4) and model inputs.

Fig. 4 plots, per flow, the ACK loss rate against the probability that
a loss indication is a timeout, and observes every point inside a
positively-sloped envelope.  :func:`timeout_ack_scatter` regenerates
the points; :func:`scatter_envelope` the bounding lines;
:func:`measured_model_inputs` extracts everything the enhanced model
needs from a trace (including the directly-measured ACK-burst
probability ``P_a`` the paper alludes to with "the ACK burst loss rate
is as high as 10%" for some flows).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.params import LinkParams
from repro.traces.analysis import estimate_rtt
from repro.traces.events import FlowTrace
from repro.traces.timeouts import classify_timeouts, recovery_stats
from repro.util.stats import pearson_correlation

__all__ = [
    "ScatterPoint",
    "timeout_ack_scatter",
    "scatter_envelope",
    "scatter_correlation",
    "MeasuredInputs",
    "measured_model_inputs",
]

#: Default q when a flow completed no recovery phase — the midpoint of
#: the paper's recommended [0.25, 0.4].
_DEFAULT_RECOVERY_LOSS = 0.325


@dataclass(frozen=True)
class ScatterPoint:
    """One flow's (ACK loss rate, timeout probability) pair."""

    flow_id: str
    ack_loss_rate: float
    timeout_probability: float


def _timeout_probability(trace: FlowTrace) -> Optional[float]:
    """P(loss indication is a timeout) ≈ timeout sequences / loss indications.

    Loss indications = fast retransmits + timeout sequences.  Fast
    retransmits are retransmissions sent outside timeout recovery.
    """
    packets = trace.data_packets
    fast_retransmits = int(
        np.count_nonzero(
            packets.mask("is_retransmission") & ~packets.mask("in_timeout_recovery")
        )
    )
    timeout_sequences = len(trace.recovery_phases)
    indications = fast_retransmits + timeout_sequences
    if indications == 0:
        return None
    return timeout_sequences / indications


def timeout_ack_scatter(traces: Sequence[FlowTrace]) -> List[ScatterPoint]:
    """One Fig.-4 point per flow that saw at least one loss indication."""
    points: List[ScatterPoint] = []
    for trace in traces:
        probability = _timeout_probability(trace)
        if probability is None:
            continue
        points.append(
            ScatterPoint(
                flow_id=trace.metadata.flow_id,
                ack_loss_rate=trace.ack_loss_rate,
                timeout_probability=probability,
            )
        )
    return points


def scatter_envelope(
    points: Sequence[ScatterPoint],
) -> Tuple[Tuple[float, float], Tuple[float, float]]:
    """((slope_low, intercept_low), (slope_high, intercept_high)).

    The two oblique lines of Fig. 4: linear fits shifted down/up to the
    extreme residuals, so every point lies between them.
    """
    if len(points) < 2:
        raise ValueError("envelope needs at least two scatter points")
    xs = [point.ack_loss_rate for point in points]
    ys = [point.timeout_probability for point in points]
    n = len(xs)
    mean_x, mean_y = sum(xs) / n, sum(ys) / n
    var_x = sum((x - mean_x) ** 2 for x in xs)
    if var_x == 0.0:
        slope = 0.0
    else:
        slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / var_x
    intercept = mean_y - slope * mean_x
    residuals = [y - (slope * x + intercept) for x, y in zip(xs, ys)]
    return (
        (slope, intercept + min(residuals)),
        (slope, intercept + max(residuals)),
    )


def scatter_correlation(points: Sequence[ScatterPoint]) -> float:
    """Pearson correlation of the Fig.-4 scatter (paper: positive, not strong)."""
    xs = [point.ack_loss_rate for point in points]
    ys = [point.timeout_probability for point in points]
    return pearson_correlation(xs, ys)


@dataclass(frozen=True)
class MeasuredInputs:
    """Everything the models need, measured from one trace."""

    params: LinkParams
    ack_burst_probability: float  # measured P_a (per-round all-ACK loss)
    throughput: float
    flow_id: str
    provider: str


def measured_model_inputs(
    trace: FlowTrace,
    timeout_value: Optional[float] = None,
    wmax: float = 64.0,
    b: int = 2,
) -> Optional[MeasuredInputs]:
    """Extract (RTT, T, p_d, p_a, q, measured P_a, throughput) from a trace.

    ``P_a`` is measured the way the paper implies: the per-round
    probability that an entire round of ACKs is lost, estimated as
    (spurious timeout sequences) / (total rounds), with rounds ≈
    duration / RTT.  Returns None when the trace is too quiet to
    measure (no RTT samples or zero throughput).
    """
    rtt = estimate_rtt(trace)
    if rtt is None or rtt <= 0.0 or trace.throughput <= 0.0:
        return None
    stats = recovery_stats(trace)
    recovery_loss = stats.recovery_loss_rate
    if recovery_loss is None:
        recovery_loss = _DEFAULT_RECOVERY_LOSS
    # Guard against degenerate phases where every retransmission
    # happened to die (q = 1 breaks the geometric series).
    recovery_loss = min(recovery_loss, 0.95)

    classified = classify_timeouts(trace)
    spurious_sequences = len(
        {c.record.sequence_index for c in classified if c.spurious}
    )
    rounds = max(1.0, trace.metadata.duration / rtt)
    ack_burst = min(0.9, spurious_sequences / rounds)

    timeout = timeout_value
    if timeout is None:
        if trace.timeouts:
            # The base (un-backed-off) timer: first timeout of each sequence.
            firsts = [
                record.rto_value
                for record in trace.timeouts
                if record.backoff_exponent == 0
            ]
            timeout = sum(firsts) / len(firsts) if firsts else 4.0 * rtt
        else:
            timeout = 4.0 * rtt

    params = LinkParams(
        rtt=rtt,
        timeout=timeout,
        # The model's p is Padhye's first-loss probability; under the
        # in-round correlation assumption the lifetime rate over-counts
        # the correlated tail (see FlowTrace.data_loss_event_rate).
        data_loss=min(trace.data_loss_event_rate, 0.5),
        ack_loss=min(trace.ack_loss_rate, 0.5),
        recovery_loss=recovery_loss,
        wmax=wmax,
        b=b,
    )
    return MeasuredInputs(
        params=params,
        ack_burst_probability=ack_burst,
        throughput=trace.throughput,
        flow_id=trace.metadata.flow_id,
        provider=trace.metadata.provider,
    )
