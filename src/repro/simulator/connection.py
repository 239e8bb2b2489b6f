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
from repro.simulator.bottleneck import BottleneckLink
from repro.simulator.channel import Link, LossModel, NoLoss
from repro.simulator.engine import Simulator
from repro.simulator.metrics import FlowLog
from repro.simulator.packet import PacketPool
from repro.simulator.receiver import Receiver
from repro.simulator.rto import RtoEstimator
from repro.telemetry.base import Telemetry, active as _active_telemetry
from repro.util.errors import BudgetExceededError, ConfigurationError
from repro.util.rng import RngStream
from repro.util.units import pps_to_mbps

__all__ = ["ConnectionConfig", "FlowHarness", "FlowResult", "run_flow"]


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
    #: the telemetry sink the flow ran under (None when uninstrumented);
    #: counter sinks are slotted plain objects, so they pickle across
    #: process-pool boundaries along with the rest of the result
    telemetry: Optional[Telemetry] = None

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


class _BufferedJitter:
    """Per-packet jitter drawn from a block-buffered log-normal stream.

    Call-for-call identical to ``rng.lognormal(-3.5, 1.0) * sigma``:
    :meth:`RngStream.lognormal_block` replicates CPython's rejection
    loop bit for bit and the scaling multiply is the same float op, so
    pre-drawing a block only moves *when* the dedicated jitter stream
    is consumed, never what any call returns.
    """

    __slots__ = ("_rng", "_sigma", "_values", "_cursor")

    _BLOCK = 64

    def __init__(self, rng: RngStream, sigma: float) -> None:
        self._rng = rng
        self._sigma = sigma
        self._values: list = []
        self._cursor = 0

    def __call__(self) -> float:
        cursor = self._cursor
        values = self._values
        if cursor >= len(values):
            sigma = self._sigma
            block = self._rng.lognormal_block(-3.5, 1.0, self._BLOCK)
            values = self._values = [value * sigma for value in block]
            cursor = 0
        self._cursor = cursor + 1
        return values[cursor]


def _jitter_fn(rng: Optional[RngStream], sigma: float) -> Optional[Callable[[], float]]:
    if rng is None or sigma <= 0.0:
        return None
    return _BufferedJitter(rng, sigma)


class FlowHarness:
    """One fully wired TCP flow on a (possibly shared) simulator.

    The wiring half of :func:`run_flow`, split out so a caller can
    construct a flow, advance the simulator itself, and inspect the
    in-flight log before harvesting :meth:`result`.  Construction wires
    everything and calls ``sender.start()``; the caller owns advancing
    the simulator and harvesting :meth:`result`.

    Each harness owns a private :class:`PacketPool` shared by its
    sender, receiver, and links, so steady-state rounds allocate no
    packet objects and pooled packets never cross flows.
    """

    __slots__ = (
        "config",
        "simulator",
        "log",
        "pool",
        "sender",
        "receiver",
        "data_link",
        "ack_link",
        "redundant_link",
        "telemetry",
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
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        tel = _active_telemetry(telemetry)
        sim = simulator
        log = FlowLog()
        rng = RngStream(seed, "connection")
        pool = PacketPool()
        self.config = config
        self.simulator = sim
        self.log = log
        self.pool = pool
        self.telemetry = tel

        # The wiring is cyclic (ACK link → sender → data link →
        # receiver → ACK link), so the ACK link's deliver closes over
        # the sender constructed below (late binding); it is also the
        # terminal owner of a delivered ACK and recycles it.
        def deliver_ack(ack, time: float) -> None:
            sender.on_ack(ack, time)
            pool.release_ack(ack)

        ack_link = Link(
            sim,
            delay=config.reverse_delay,
            loss_model=ack_loss or NoLoss(),
            jitter=_jitter_fn(rng.spawn("ack-jitter"), config.jitter_sigma),
            deliver=deliver_ack,
            on_drop=lambda ack, time: log.record_ack_drop(ack.transmission_id),
            telemetry=tel,
            direction="ack",
            packet_pool=pool,
            release=pool.release_ack,
        )
        receiver = Receiver(
            sim,
            ack_link,
            log,
            b=config.b,
            delack_timeout=config.delack_timeout,
            pool=pool,
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
                telemetry=tel,
                direction="data",
                packet_pool=pool,
                release=pool.release_segment,
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
                telemetry=tel,
                direction="data",
                packet_pool=pool,
                release=pool.release_segment,
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
                telemetry=tel,
                direction="data",
                packet_pool=pool,
                release=pool.release_segment,
            )

        # Registered third-party senders may not accept a telemetry
        # kwarg, so it is only forwarded when a sink is actually active.
        sender_kwargs = {} if tel is None else {"telemetry": tel}
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
            **sender_kwargs,
        )
        self.sender = sender
        self.receiver = receiver
        self.data_link = data_link
        self.ack_link = ack_link
        self.redundant_link = redundant_link
        sender.start()

    def result(self) -> FlowResult:
        """The flow's result as of the simulator's current progress."""
        return FlowResult(
            config=self.config,
            log=self.log,
            duration=self.config.duration,
            telemetry=self.telemetry,
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
    telemetry: Optional[Telemetry] = None,
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
    When omitted, the ambient watchdog installed by
    :func:`repro.robustness.watchdog.watchdog_scope` (e.g. via the
    experiment CLI's ``--timeout-s``/``--max-events`` flags) applies.

    ``telemetry`` (a :class:`repro.telemetry.Telemetry` sink, e.g.
    :class:`~repro.telemetry.CountingTelemetry`) instruments the
    engine, both links, and the sender for this flow; the sink rides
    back on :attr:`FlowResult.telemetry`.  ``None`` or
    :class:`~repro.telemetry.NullTelemetry` costs nothing.
    """
    tel = _active_telemetry(telemetry)
    sim = simulator or Simulator(telemetry=tel)
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
        telemetry=tel,
    )

    if watchdog is None:
        # Imported lazily: robustness sits above the simulator in the
        # layering (its fault hooks wrap scenario channels), so a
        # module-level import here would be circular.
        from repro.robustness.watchdog import current_watchdog

        watchdog = current_watchdog()

    run_kwargs = watchdog.run_kwargs() if watchdog is not None else {}
    try:
        sim.run(until=config.duration, **run_kwargs)
    except BudgetExceededError as error:
        if tel is not None:
            tel.on_budget_exceeded(error.kind)
        raise
    harness.log.seal()
    return harness.result()
