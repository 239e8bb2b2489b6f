"""TCP NewReno sender: partial-ACK-aware fast recovery (RFC 6582).

The paper's related work ([23], Parvez et al.) models NewReno, and the
paper positions Reno as "the basis of the other TCP versions".  This
extension lets the simulator answer the obvious follow-up: how much of
the HSR degradation is Reno-specific?

Difference from :class:`~repro.simulator.reno.RenoSender`: during fast
recovery a *partial* ACK (one that advances ``snd_una`` but not past
the recovery point) immediately retransmits the next missing segment
and keeps the sender in fast recovery, instead of deflating the window
— so a burst of losses within one window costs one fast-recovery
episode rather than a likely retransmission timeout.
"""

from __future__ import annotations

from repro.simulator.packet import AckSegment
from repro.simulator.reno import _FAST_RECOVERY, RenoSender

__all__ = ["NewRenoSender"]


class NewRenoSender(RenoSender):
    """Reno plus RFC 6582 partial-ACK handling in fast recovery."""

    __slots__ = ()

    def _on_new_ack(self, ack: AckSegment, arrival_time: float) -> None:
        if self._phase == _FAST_RECOVERY and ack.ack_seq < self._recover_point:
            self._on_partial_ack(ack, arrival_time)
            return
        super()._on_new_ack(ack, arrival_time)

    def _on_partial_ack(self, ack: AckSegment, arrival_time: float) -> None:
        """RFC 6582: retransmit the next hole, stay in fast recovery."""
        newly_acked = ack.ack_seq - self.snd_una
        for seq in range(self.snd_una, ack.ack_seq):
            self._send_info.pop(seq, None)
        self.snd_una = ack.ack_seq
        if self.snd_nxt < self.snd_una:
            self.snd_nxt = self.snd_una
        # Deflate by the amount acknowledged, then retransmit the next
        # missing segment straight away.
        self.cwnd = max(self.cwnd - newly_acked + 1.0, 1.0)
        self._log.record_cwnd(self._simulator.now, self.cwnd, self._phase)
        self._transmit(self.snd_una, is_retransmission=True)
        self._restart_rto_timer()
