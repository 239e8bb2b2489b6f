"""Discrete-event TCP Reno / MPTCP simulator.

The substrate standing in for the paper's real BTR testbed: it produces
the same transport-layer observables (per-packet send/arrival times in
both directions, timeout events, recovery phases, window trajectory)
that the paper extracted from wireshark captures.

Typical use::

    from repro.simulator import (
        ConnectionConfig, BernoulliLoss, GilbertElliottLoss, run_flow,
    )
    from repro.util.rng import RngStream

    rng = RngStream(42)
    config = ConnectionConfig(duration=60.0)
    result = run_flow(
        config,
        data_loss=BernoulliLoss(0.0075, rng.spawn("data")),
        ack_loss=GilbertElliottLoss(rng.spawn("ack"),
                                    mean_good_duration=30.0,
                                    mean_bad_duration=0.2),
    )
    print(result.throughput, result.log.ack_loss_rate)
"""

from repro.cc import (
    cc_names,
    get_cc,
    make_sender,
    register_cc,
    unregister_cc,
)
from repro.simulator.bbr import BbrSender
from repro.simulator.bottleneck import BottleneckLink
from repro.simulator.channel import (
    BernoulliLoss,
    CompositeLoss,
    GilbertElliottLoss,
    HandoffLoss,
    Link,
    LossModel,
    NoLoss,
    RoundCorrelatedLoss,
    TraceDrivenLoss,
)
from repro.simulator.compound import CompoundSender
from repro.simulator.connection import (
    ConnectionConfig,
    FlowHarness,
    FlowResult,
    run_flow,
)
from repro.simulator.cubic import CubicSender
from repro.simulator.engine import EventHandle, Simulator
from repro.simulator.metrics import (
    AckRecord,
    CwndSample,
    DataPacketRecord,
    FlowLog,
    RecoveryPhaseRecord,
    TimeoutRecord,
)
from repro.simulator.mptcp import MptcpResult, run_backup, run_duplex
from repro.simulator.newreno import NewRenoSender
from repro.simulator.packet import AckSegment, Segment
from repro.simulator.receiver import Receiver
from repro.simulator.relentless import RelentlessSender
from repro.simulator.reno import RenoSender
from repro.simulator.rto import MAX_BACKOFF_FACTOR, RtoEstimator
from repro.simulator.sender_base import BaseSender

__all__ = [
    "AckRecord",
    "AckSegment",
    "BaseSender",
    "BbrSender",
    "BernoulliLoss",
    "BottleneckLink",
    "CompositeLoss",
    "CompoundSender",
    "ConnectionConfig",
    "CubicSender",
    "CwndSample",
    "DataPacketRecord",
    "EventHandle",
    "FlowHarness",
    "FlowLog",
    "FlowResult",
    "GilbertElliottLoss",
    "HandoffLoss",
    "Link",
    "LossModel",
    "MAX_BACKOFF_FACTOR",
    "MptcpResult",
    "NewRenoSender",
    "NoLoss",
    "Receiver",
    "RecoveryPhaseRecord",
    "RelentlessSender",
    "RenoSender",
    "RoundCorrelatedLoss",
    "RtoEstimator",
    "Segment",
    "Simulator",
    "TimeoutRecord",
    "TraceDrivenLoss",
    "cc_names",
    "get_cc",
    "make_sender",
    "register_cc",
    "run_backup",
    "run_duplex",
    "run_flow",
    "unregister_cc",
]
