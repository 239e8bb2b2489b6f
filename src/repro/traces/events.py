"""Flow-trace containers: the schema a packet capture reduces to.

A :class:`FlowTrace` is the dataset unit of the reproduction — the
transport-layer observables of one TCP flow plus capture metadata
(provider, phone, scenario, date), mirroring what the paper's team
extracted from each wireshark capture.  The simulator's
:class:`~repro.simulator.metrics.FlowLog` columns are reused directly
as the per-packet schema: a trace's ``data_packets`` and ``acks`` are
the log's column sets, and record lists given instead are converted to
columns once, so every reader sees one representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.simulator.metrics import (
    AckColumns,
    DataPacketColumns,
    RecoveryPhaseRecord,
    TimeoutRecord,
)
from repro.util.units import BYTES_PER_MSS

__all__ = ["FlowMetadata", "FlowTrace"]


@dataclass(frozen=True)
class FlowMetadata:
    """Capture context of one flow (Table-I dimensions)."""

    flow_id: str
    provider: str
    technology: str
    scenario: str  # "hsr" | "stationary" | "driving"
    capture_month: str  # "2015-01" | "2015-10"
    phone_model: str
    duration: float
    seed: int = 0


@dataclass
class FlowTrace:
    """One flow's complete transport-layer observables."""

    metadata: FlowMetadata
    data_packets: DataPacketColumns = field(default_factory=DataPacketColumns)
    acks: AckColumns = field(default_factory=AckColumns)
    timeouts: List[TimeoutRecord] = field(default_factory=list)
    recovery_phases: List[RecoveryPhaseRecord] = field(default_factory=list)
    delivered_payloads: int = 0
    duplicate_payloads: int = 0

    def __setattr__(self, name: str, value) -> None:
        # Record lists become columns on assignment, in __init__ too.
        if name == "data_packets":
            value = DataPacketColumns.of(value)
        elif name == "acks":
            value = AckColumns.of(value)
        object.__setattr__(self, name, value)

    # -- headline statistics ------------------------------------------

    @property
    def throughput(self) -> float:
        """Packets delivered to the receiver per second."""
        return self.delivered_payloads / self.metadata.duration

    @property
    def transferred_bytes(self) -> int:
        """Payload bytes that reached the receiver (MSS-sized packets)."""
        return self.delivered_payloads * BYTES_PER_MSS

    @property
    def data_loss_rate(self) -> float:
        """Lifetime data loss rate ``p_d``."""
        if not self.data_packets:
            return 0.0
        return self.data_packets.bit("dropped").count(1) / len(self.data_packets)

    @property
    def ack_loss_rate(self) -> float:
        """Lifetime ACK loss rate ``p_a``."""
        if not self.acks:
            return 0.0
        return self.acks.bit("dropped").count(1) / len(self.acks)

    @property
    def data_loss_event_rate(self) -> float:
        """Padhye's ``p``: the probability a packet is the *first* loss
        of a round.

        Under the in-round correlation assumption (kept by the paper),
        a loss event wipes the rest of the round, so the lifetime loss
        rate over-counts by the burst tail; the model's ``p`` is the
        rate of maximal loss runs.
        """
        if not self.data_packets:
            return 0.0
        lost = self.data_packets.mask("dropped")  # in send order
        events = int(lost[0]) + int(np.count_nonzero(lost[1:] & ~lost[:-1]))
        return events / len(self.data_packets)

    def completed_recovery_phases(self) -> List[RecoveryPhaseRecord]:
        return [phase for phase in self.recovery_phases if phase.complete]

    def arrivals_by_seq(self) -> dict:
        """seq -> sorted arrival times of every copy that reached the receiver."""
        packets = self.data_packets
        arrived = packets.mask("arrival_time")
        seqs = packets.column("seq")[arrived]
        times = packets.column("arrival_time")[arrived]
        order = np.lexsort((times, seqs))
        seqs, times = seqs[order].tolist(), times[order].tolist()
        arrivals: dict = {}
        for seq, time in zip(seqs, times):
            arrivals.setdefault(seq, []).append(time)
        return arrivals
