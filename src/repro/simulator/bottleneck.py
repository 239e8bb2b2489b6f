"""A bandwidth-limited bottleneck link with a drop-tail queue.

The paper's server side is a 100 Mbps ECS instance — fast enough that
its flows are never bandwidth-limited, which is why the base
:class:`~repro.simulator.channel.Link` models only delay + loss.  This
extension makes congestion *endogenous* for studies beyond the paper's
scope: packets are serialised at ``rate_pps``, queue in a finite FIFO
buffer, and overflow drops produce the congestive losses that TCP's
AIMD actually probes for.

Usage: pass ``bottleneck`` to :func:`repro.simulator.connection.run_flow`
or wire a :class:`BottleneckLink` manually in place of the data link.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.simulator.channel import LossModel, NoLoss
from repro.simulator.engine import Simulator
from repro.util.errors import ConfigurationError

__all__ = ["BottleneckLink"]


class BottleneckLink:
    """FIFO queue + serialisation + propagation + optional random loss.

    Packet lifecycle: on ``send`` the packet first passes the (optional)
    random loss model, then enters the queue if there is room (else a
    drop-tail loss), is serialised at ``rate_pps`` packets/second, and
    finally propagates for ``delay`` seconds.
    """

    __slots__ = (
        "_simulator",
        "delay",
        "rate_pps",
        "buffer_packets",
        "loss_model",
        "deliver",
        "on_drop",
        "sent",
        "dropped",
        "overflows",
        "_queued",
        "_service_free_at",
    )

    def __init__(
        self,
        simulator: Simulator,
        delay: float,
        rate_pps: float,
        buffer_packets: int = 64,
        loss_model: Optional[LossModel] = None,
        deliver: Optional[Callable] = None,
        on_drop: Optional[Callable] = None,
    ) -> None:
        if delay <= 0.0:
            raise ConfigurationError(f"delay must be positive, got {delay}")
        if rate_pps <= 0.0:
            raise ConfigurationError(f"rate_pps must be positive, got {rate_pps}")
        if buffer_packets < 1:
            raise ConfigurationError(
                f"buffer_packets must be >= 1, got {buffer_packets}"
            )
        if deliver is None:
            raise ConfigurationError(
                "BottleneckLink needs a deliver callback at construction"
            )
        self._simulator = simulator
        self.delay = delay
        self.rate_pps = rate_pps
        self.buffer_packets = buffer_packets
        self.loss_model = loss_model or NoLoss()
        self.deliver = deliver
        self.on_drop = on_drop

        self.sent = 0
        self.dropped = 0  # random-loss drops
        self.overflows = 0  # queue (congestive) drops
        self._queued = 0
        self._service_free_at = 0.0

    @property
    def service_time(self) -> float:
        """Seconds to serialise one packet."""
        return 1.0 / self.rate_pps

    @property
    def queue_depth(self) -> int:
        """Packets currently queued or in service."""
        return self._queued

    @property
    def loss_fraction(self) -> float:
        """All drops (random + overflow) over everything sent."""
        return (self.dropped + self.overflows) / self.sent if self.sent else 0.0

    def send(self, packet) -> None:
        """Enqueue one packet for transmission."""
        self.sent += 1
        now = self._simulator.now
        if self.loss_model.is_lost(now):
            self.dropped += 1
            self._drop(packet, now)
            return
        if self._queued >= self.buffer_packets:
            self.overflows += 1
            self._drop(packet, now)
            return
        self._queued += 1
        start = max(now, self._service_free_at)
        departure = start + self.service_time
        self._service_free_at = departure
        # Queue occupancy ends at service completion; the packet then
        # propagates for `delay` before delivery.  Both events ride the
        # engine's payload fast path — no closure per packet.
        self._simulator.schedule_call(departure - now, self._depart, None)
        self._simulator.schedule_call(departure + self.delay - now, self.deliver, packet)

    def send_burst(self, packets) -> None:
        """Enqueue packets one :meth:`send` at a time (a holdover name
        for the benchmark's layer tracer; see ROADMAP item 4)."""
        for packet in packets:
            self.send(packet)

    def _depart(self, _payload, _time) -> None:
        self._queued -= 1

    def _drop(self, packet, now: float) -> None:
        if self.on_drop is not None:
            self.on_drop(packet, now)
