"""Wiring a complete TCP connection and running it to a result.

:func:`run_flow` builds the sender → data link → receiver → ACK link →
sender loop, runs it for a configured duration, and returns a
:class:`FlowResult` carrying the full :class:`~repro.simulator.metrics.FlowLog`
plus headline statistics.  This is the workhorse every experiment and
the synthetic-trace generator call.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Callable, Optional

from repro.cc import make_sender
from repro.context import current_run_context
from repro.simulator.bottleneck import BottleneckLink
from repro.simulator.channel import Link, LossModel, NoLoss
from repro.simulator.engine import Simulator
from repro.simulator.metrics import FlowLog
from repro.simulator.receiver import Receiver
from repro.simulator.rto import RtoEstimator
from repro.util.errors import ConfigurationError
from repro.util.rng import RngStream
from repro.util.units import pps_to_mbps

__all__ = ["ConnectionConfig", "FlowHarness", "FlowResult", "run_flow"]

#: Log-normal jitter values drawn per refill of a link's jitter stream.
_JITTER_BLOCK = 64


@dataclass(frozen=True)
class ConnectionConfig:
    """Static parameters of one simulated connection.

    ``forward_delay``/``reverse_delay`` are one-way propagation delays;
    their sum is the floor of the RTT (the paper's Fig. 1 shows ≈30 ms
    per direction on BTR).  ``jitter_sigma`` adds log-normal delay
    noise per packet, mimicking cellular scheduling variance.
    """

    forward_delay: float = 0.03
    reverse_delay: float = 0.03
    jitter_sigma: float = 0.0
    b: int = 2
    wmax: float = 64.0
    duration: float = 120.0
    initial_rto: float = 1.0
    min_rto: float = 0.2
    delack_timeout: float = 0.05
    initial_cwnd: float = 2.0

    def __post_init__(self) -> None:
        if self.forward_delay <= 0.0 or self.reverse_delay <= 0.0:
            raise ConfigurationError("link delays must be positive")
        if self.duration <= 0.0:
            raise ConfigurationError(f"duration must be positive, got {self.duration}")
        if self.jitter_sigma < 0.0:
            raise ConfigurationError("jitter_sigma must be >= 0")

    @property
    def base_rtt(self) -> float:
        return self.forward_delay + self.reverse_delay

    def with_(self, **changes) -> "ConnectionConfig":
        """A copy with the given fields replaced.

        Unknown field names raise :class:`ConfigurationError` instead of
        the bare ``TypeError`` from :func:`dataclasses.replace` — a
        typo'd sweep parameter should name itself, not produce a stack
        trace deep inside a campaign.
        """
        known = {field.name for field in fields(self)}
        unknown = sorted(set(changes) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown ConnectionConfig field(s) {unknown}; "
                f"known fields: {sorted(known)}"
            )
        return replace(self, **changes)


@dataclass
class FlowResult:
    """Outcome of one simulated flow."""

    config: ConnectionConfig
    log: FlowLog
    duration: float
    #: the engine's event accounting over the run (see
    #: :class:`~repro.simulator.engine.Simulator`) and the sender's RTO
    #: arm count: what the flow did that no log row records
    events_scheduled: int = 0
    events_fired: int = 0
    events_cancelled: int = 0
    rto_armed: int = 0

    @property
    def throughput(self) -> float:
        """Packets received per second — the paper's throughput notion
        (unique payloads reaching the receiver per unit time)."""
        return self.log.delivered_payloads / self.duration

    @property
    def throughput_mbps(self) -> float:
        return pps_to_mbps(self.throughput)

    @property
    def data_loss_rate(self) -> float:
        return self.log.data_loss_rate

    @property
    def ack_loss_rate(self) -> float:
        return self.log.ack_loss_rate


def _jitter_fn(rng: Optional[RngStream], sigma: float) -> Optional[Callable[[], float]]:
    """Per-packet jitter: the bound ``__next__`` of a block-buffered
    log-normal stream.

    Call-for-call identical to ``rng.lognormal(-3.5, 1.0) * sigma``:
    :meth:`RngStream.lognormal_block` replicates CPython's rejection
    loop bit for bit and the scaling multiply is the same float op, so
    pre-drawing a block only moves *when* the dedicated jitter stream
    is consumed, never what any call returns.
    """
    if rng is None or sigma <= 0.0:
        return None

    def draws():
        while True:
            for value in rng.lognormal_block(-3.5, 1.0, _JITTER_BLOCK):
                yield value * sigma

    return draws().__next__


class FlowHarness:
    """One fully wired TCP flow on a (possibly shared) simulator.

    The wiring half of :func:`run_flow`, split out so a caller can
    construct a flow, advance the simulator itself, and inspect the
    in-flight log before harvesting :meth:`result`.  Construction wires
    everything and calls ``sender.start()``; the caller owns advancing
    the simulator and harvesting :meth:`result`.
    """

    __slots__ = (
        "config",
        "simulator",
        "log",
        "sender",
        "receiver",
        "data_link",
        "ack_link",
        "redundant_link",
    )

    def __init__(
        self,
        config: ConnectionConfig,
        *,
        simulator: Simulator,
        data_loss: Optional[LossModel] = None,
        ack_loss: Optional[LossModel] = None,
        seed: int = 0,
        redundant_data_loss: Optional[LossModel] = None,
        variant: str = "reno",
        cc_params=None,
        bottleneck_rate: Optional[float] = None,
        bottleneck_buffer: int = 64,
    ) -> None:
        sim = simulator
        log = FlowLog()
        rng = RngStream(seed, "connection")
        self.config = config
        self.simulator = sim
        self.log = log

        # The wiring is cyclic (ACK link → sender → data link →
        # receiver → ACK link), so the ACK link starts with a deliver
        # that closes over the sender constructed below (late binding)
        # and is pointed straight at ``sender.on_ack`` once it exists.
        ack_link = Link(
            sim,
            delay=config.reverse_delay,
            loss_model=ack_loss or NoLoss(),
            jitter=_jitter_fn(rng.spawn("ack-jitter"), config.jitter_sigma),
            deliver=lambda ack, time: sender.on_ack(ack, time),
            on_drop=lambda ack, time: log.record_ack_drop(ack.transmission_id),
        )
        receiver = Receiver(
            sim,
            ack_link,
            log,
            b=config.b,
            delack_timeout=config.delack_timeout,
        )
        if bottleneck_rate is not None:
            data_link = BottleneckLink(
                sim,
                delay=config.forward_delay,
                rate_pps=bottleneck_rate,
                buffer_packets=bottleneck_buffer,
                loss_model=data_loss or NoLoss(),
                deliver=receiver.on_data,
                on_drop=lambda segment, time: log.record_data_drop(
                    segment.transmission_id
                ),
            )
        else:
            data_link = Link(
                sim,
                delay=config.forward_delay,
                loss_model=data_loss or NoLoss(),
                jitter=_jitter_fn(rng.spawn("data-jitter"), config.jitter_sigma),
                deliver=receiver.on_data,
                on_drop=lambda segment, time: log.record_data_drop(
                    segment.transmission_id
                ),
            )
        redundant_link: Optional[Link] = None
        if redundant_data_loss is not None:
            redundant_link = Link(
                sim,
                delay=config.forward_delay,
                loss_model=redundant_data_loss,
                jitter=_jitter_fn(rng.spawn("alt-jitter"), config.jitter_sigma),
                deliver=receiver.on_data,
                on_drop=lambda segment, time: log.record_data_drop(
                    segment.transmission_id
                ),
            )

        sender = make_sender(
            variant,
            sim,
            data_link,
            log,
            cc_params=cc_params,
            wmax=config.wmax,
            initial_cwnd=config.initial_cwnd,
            rto=RtoEstimator(initial_rto=config.initial_rto, min_rto=config.min_rto),
            redundant_retransmit_link=redundant_link,
        )
        ack_link.deliver = sender.on_ack
        self.sender = sender
        self.receiver = receiver
        self.data_link = data_link
        self.ack_link = ack_link
        self.redundant_link = redundant_link
        sender.start()

    def result(self) -> FlowResult:
        """The flow's result as of the simulator's current progress."""
        simulator = self.simulator
        return FlowResult(
            config=self.config,
            log=self.log,
            duration=self.config.duration,
            events_scheduled=simulator.events_scheduled,
            events_fired=simulator.events_processed,
            events_cancelled=simulator.events_cancelled,
            rto_armed=self.sender.rto_armed,
        )


def run_flow(
    config: ConnectionConfig,
    data_loss: Optional[LossModel] = None,
    ack_loss: Optional[LossModel] = None,
    seed: int = 0,
    redundant_data_loss: Optional[LossModel] = None,
    simulator: Optional[Simulator] = None,
    variant: str = "reno",
    cc_params=None,
    bottleneck_rate: Optional[float] = None,
    bottleneck_buffer: int = 64,
    watchdog=None,
) -> FlowResult:
    """Simulate one TCP flow and return its result.

    ``redundant_data_loss``, when given, attaches an MPTCP-style
    alternate subflow used only to double timeout retransmissions
    (paper Section V-B backup mode).  ``variant`` names a sender in
    the congestion-control registry (:mod:`repro.cc`): ``"reno"`` (the
    paper's kernel), ``"cubic"``, ``"bbr"``, ``"compound"``, or anything
    registered via :func:`repro.cc.register_cc`; ``cc_params`` carries
    the variant's tuning dataclass (see :func:`repro.cc.make_sender`).

    Most callers should not invoke this directly: describe the run as a
    :class:`repro.exec.FlowSpec` and hand it to the execution pipeline,
    which adds retries, quarantine, campaign reporting, and parallel
    backends on top of this primitive.

    ``watchdog`` (a :class:`repro.robustness.watchdog.Watchdog`) bounds
    the run: its event/sim-time/wall-clock budgets are plumbed into the
    engine and raise :class:`~repro.util.errors.BudgetExceededError`
    instead of letting a degenerate channel state hang the campaign.
    When omitted, the run context's watchdog
    (:func:`repro.context.run_context`, e.g. via the experiment CLI's
    ``--timeout-s``/``--max-events`` flags) applies.

    The result carries the complete log plus the engine's event
    accounting and the sender's RTO arm count, so every per-flow
    counter can be read off the finished flow; nothing observes the
    run while it happens.
    """
    sim = simulator or Simulator()
    harness = FlowHarness(
        config,
        simulator=sim,
        data_loss=data_loss,
        ack_loss=ack_loss,
        seed=seed,
        redundant_data_loss=redundant_data_loss,
        variant=variant,
        cc_params=cc_params,
        bottleneck_rate=bottleneck_rate,
        bottleneck_buffer=bottleneck_buffer,
    )

    if watchdog is None:
        watchdog = current_run_context().watchdog

    run_kwargs = watchdog.run_kwargs() if watchdog is not None else {}
    sim.run(until=config.duration, **run_kwargs)
    return harness.result()
