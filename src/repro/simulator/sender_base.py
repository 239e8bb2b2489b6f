"""The shared TCP sender state machine every variant builds on.

:class:`BaseSender` owns everything the paper's loss model cares about
and every variant shares: the send window bookkeeping (``snd_una`` /
``snd_nxt`` / ``snd_max``), duplicate-ACK counting and fast
retransmit, RTO arming with exponential backoff (via
:class:`~repro.simulator.rto.RtoEstimator`), timeout-recovery phase
records, and Karn-filtered RTT sampling.  Every wire transmission is
one :class:`~repro.simulator.packet.Segment` handed to the link's
``send``; a window round is too short (about two packets on the
paper's HSR channels) for a batched path to pay for itself.  Its
default policy hooks implement classic
Reno, so :class:`~repro.simulator.reno.RenoSender` is this class
unchanged; CUBIC, BBR, Compound, and Relentless override only the
hooks below.

**Sender constructor protocol.**  This is the contract a factory
registered with :func:`repro.cc.register_cc` must satisfy —
:func:`repro.cc.make_sender` (called by the flow harness for every
executed :class:`~repro.exec.FlowSpec`) invokes::

    factory(simulator, data_link, log,
            wmax=<float>,                      # window clamp (segments)
            initial_cwnd=<float>,
            rto=<RtoEstimator>,
            redundant_retransmit_link=<Link or None>,
            **tuning)                          # fields of the variant's
                                               # cc_params dataclass

The first three arguments are positional: the event engine, the data
:class:`~repro.simulator.channel.Link`, and the
:class:`~repro.simulator.metrics.FlowLog` to record into.  All
remaining arguments arrive as keywords and must have defaults.  The
instance must expose ``start()``, ``on_ack(ack, time)``, ``pump()``,
``phase``, ``rto_armed`` and the window attributes this class defines
— subclassing :class:`BaseSender` provides all of it.

**Policy hooks** (defaults are Reno; override in subclasses):

* :meth:`_send_window` — segments the window permits in flight.
* :meth:`_ca_window` — the congestion-avoidance window after one ACK.
* :meth:`_on_loss_event` — window/ssthresh response entering fast
  recovery (triple duplicate ACK).
* :meth:`_exit_fast_recovery` — deflation when a new ACK ends recovery.
* :meth:`_on_timeout_collapse` — response to the first RTO of a
  sequence.
* :meth:`_on_rtt_sample` — fed every Karn-valid RTT sample.
* :meth:`_after_new_ack` — runs after window growth on every new ACK
  (rate estimators, per-round secondary windows).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from repro.simulator.channel import Link
from repro.simulator.engine import EventHandle, Simulator
from repro.simulator.metrics import FlowLog, RecoveryPhaseRecord, TimeoutRecord
from repro.simulator.packet import AckSegment, Segment
from repro.simulator.rto import RtoEstimator
from repro.util.errors import ConfigurationError

__all__ = [
    "BaseSender",
    "_CONGESTION_AVOIDANCE",
    "_FAST_RECOVERY",
    "_SLOW_START",
    "_TIMEOUT_RECOVERY",
]

_SLOW_START = "slow_start"
_CONGESTION_AVOIDANCE = "congestion_avoidance"
_FAST_RECOVERY = "fast_recovery"
_TIMEOUT_RECOVERY = "timeout_recovery"

_DUPACK_THRESHOLD = 3
_MIN_SSTHRESH = 2.0


class BaseSender:
    """Loss detection, RTO plumbing, and window bookkeeping shared by
    every congestion-control variant; default hooks implement Reno."""

    __slots__ = (
        "_simulator",
        "_data_link",
        "_log",
        "wmax",
        "cwnd",
        "ssthresh",
        "rto",
        "redundant_retransmit_link",
        "subflow_id",
        "snd_una",
        "snd_nxt",
        "snd_max",
        "_dupacks",
        "_phase",
        "_recover_point",
        "_rto_timer",
        "_current_recovery",
        "_recovery_records",
        "_transmission_counter",
        "_send_info",
        "rto_armed",
    )

    def __init__(
        self,
        simulator: Simulator,
        data_link: Link,
        log: FlowLog,
        wmax: float = 64.0,
        initial_cwnd: float = 2.0,
        initial_ssthresh: Optional[float] = None,
        rto: Optional[RtoEstimator] = None,
        redundant_retransmit_link: Optional[Link] = None,
        subflow_id: int = 0,
    ) -> None:
        if wmax < 1.0:
            raise ConfigurationError(f"wmax must be >= 1, got {wmax}")
        if initial_cwnd < 1.0:
            raise ConfigurationError(f"initial_cwnd must be >= 1, got {initial_cwnd}")
        self._simulator = simulator
        self._data_link = data_link
        self._log = log
        self.wmax = wmax
        self.cwnd = initial_cwnd
        self.ssthresh = initial_ssthresh if initial_ssthresh is not None else wmax
        self.rto = rto or RtoEstimator()
        self.redundant_retransmit_link = redundant_retransmit_link
        self.subflow_id = subflow_id

        self.snd_una = 0  # oldest unacknowledged sequence number
        self.snd_nxt = 0  # next sequence number to (re)send; pulled back on RTO
        self.snd_max = 0  # first never-transmitted sequence number
        self._dupacks = 0
        self._phase = _SLOW_START
        self._recover_point = 0  # fast-recovery exit threshold
        self._rto_timer: Optional[EventHandle] = None
        self._current_recovery: Optional[RecoveryPhaseRecord] = None
        self._recovery_records: list = []  # log rows of the open phase's retransmissions
        self._transmission_counter = 0
        #: per-seq (last send time, ever retransmitted) for Karn's rule
        self._send_info: Dict[int, Tuple[float, bool]] = {}
        #: times the retransmission timer was (re)armed -- the one
        #: observable no log row records
        self.rto_armed = 0
        self._log.record_cwnd(simulator.now, self.cwnd, self._phase)

    # -- public surface ---------------------------------------------------

    @property
    def phase(self) -> str:
        return self._phase

    @property
    def in_timeout_recovery(self) -> bool:
        return self._phase == _TIMEOUT_RECOVERY

    @property
    def inflight(self) -> int:
        """Segments sent (from the window's perspective) and unacked."""
        return self.snd_nxt - self.snd_una

    @property
    def has_outstanding_data(self) -> bool:
        return self.snd_una < self.snd_max

    def start(self) -> None:
        """Begin transmitting (schedules the first send immediately)."""
        self._simulator.schedule(0.0, self.pump)

    def pump(self) -> None:
        """Send as much data as the window allows.

        After an RTO, ``snd_nxt`` has been pulled back to just past the
        retransmitted segment, so the slow-start that follows recovery
        resends the rest of the lost window (go-back-N under cumulative
        ACKs) before any new data — real Reno behaviour.
        """
        if self._phase == _TIMEOUT_RECOVERY:
            # Only the lost packet is retransmitted during timeout
            # recovery (paper Section III-B.1).
            return
        # The window limit is fixed for the whole burst (cwnd and
        # snd_una only change from ACK/timeout events, which are never
        # processed inside this loop), so hoist the floor() out of it.
        limit = self.snd_una + math.floor(self._send_window())
        self._send_range(limit)
        self._ensure_rto_armed()

    # -- window policy hooks (defaults: Reno) -----------------------------

    def _send_window(self) -> float:
        """Segments the window currently permits in flight (pre-floor).

        Compound returns ``cwnd + dwnd`` here; rate-based senders keep
        ``cwnd`` synced to their model and use the default.
        """
        return min(self.cwnd, self.wmax)

    def _ca_window(self, newly_acked: int) -> float:
        """The congestion-avoidance window after one new ACK (pre-clamp).

        Reno: +1/cwnd per ACK, i.e. one segment every b rounds under
        delayed ACK (paper Eq. 3).
        """
        return self.cwnd + 1.0 / self.cwnd

    def _on_loss_event(self) -> None:
        """Window response entering fast recovery (triple dup ACK).

        Reno halves: ``ssthresh = cwnd/2``, then the window is set to
        ``ssthresh + 3`` (the three duplicates have left the network).
        """
        self.ssthresh = max(self.cwnd / 2.0, _MIN_SSTHRESH)
        self.cwnd = self.ssthresh + _DUPACK_THRESHOLD

    def _exit_fast_recovery(self) -> None:
        """Deflation when the recovery-ending new ACK arrives.

        Classic Reno: the window deflates to ``ssthresh`` and
        congestion avoidance resumes.
        """
        self.cwnd = self.ssthresh
        self._set_phase(_CONGESTION_AVOIDANCE)

    def _on_timeout_collapse(self) -> None:
        """Window response to the first RTO of a timeout sequence."""
        self.ssthresh = max(self.cwnd / 2.0, _MIN_SSTHRESH)
        self.cwnd = 1.0

    def _on_rtt_sample(self, rtt: float, now: float) -> None:
        """A Karn-valid RTT sample (already folded into the RTO
        estimator); delay/rate-based variants filter it here."""

    def _after_new_ack(self, newly_acked: int, now: float) -> None:
        """Runs at the end of every new-ACK event, after window growth
        and backoff collapse; rate estimators and per-round secondary
        windows (BBR, Compound) live here."""

    # -- transmission loop --------------------------------------------------

    def _send_range(self, limit: int) -> None:
        """Transmit sequence numbers from ``snd_nxt`` up to ``limit``.

        The window loop of :meth:`pump` (and BBR's paced quanta), which
        never runs in timeout recovery, so no segment here is a
        recovery retransmission or needs a redundant copy — that case
        is :meth:`_transmit`'s.  A segment below ``snd_max`` resends
        data pulled back by an RTO; one at or above it was never sent,
        so it has no Karn history to carry over.
        """
        nxt = self.snd_nxt
        if nxt >= limit:
            return
        now = self._simulator.now
        snd_max = self.snd_max
        subflow_id = self.subflow_id
        send_info = self._send_info
        record_send = self._log.record_data_send
        send = self._data_link.send
        tid = self._transmission_counter
        for seq in range(nxt, limit):
            retx = seq < snd_max
            send_info[seq] = (now, retx)
            record_send(tid, seq, now, retx, False, subflow_id)
            send(Segment(seq, tid, now, retx, False, subflow_id))
            tid += 1
        self._transmission_counter = tid
        self.snd_nxt = limit
        if limit > snd_max:
            self.snd_max = limit

    # -- ACK processing -----------------------------------------------------

    def on_ack(self, ack: AckSegment, arrival_time: float) -> None:
        """Handle an acknowledgement delivered by the reverse link."""
        self._log.record_ack_arrival(ack.transmission_id, arrival_time)
        if ack.ack_seq > self.snd_una:
            self._on_new_ack(ack, arrival_time)
        else:
            self._on_duplicate_ack()
        self.pump()

    def _on_new_ack(self, ack: AckSegment, arrival_time: float) -> None:
        newly_acked = ack.ack_seq - self.snd_una
        # Karn's algorithm: sample RTT only from never-retransmitted
        # segments.
        last_acked = ack.ack_seq - 1
        info = self._send_info.get(last_acked)
        if info is not None and not info[1]:
            rtt_sample = arrival_time - info[0]
            self.rto.on_measurement(rtt_sample)
            self._on_rtt_sample(rtt_sample, arrival_time)
        for seq in range(self.snd_una, ack.ack_seq):
            self._send_info.pop(seq, None)
        self.snd_una = ack.ack_seq
        if self.snd_nxt < self.snd_una:
            self.snd_nxt = self.snd_una
        self._dupacks = 0

        if self._phase == _TIMEOUT_RECOVERY:
            self._finish_timeout_recovery(arrival_time)
        elif self._phase == _FAST_RECOVERY:
            self._exit_fast_recovery()
        else:
            self._grow_window(newly_acked)

        self.rto.on_recovery()
        self._after_new_ack(newly_acked, arrival_time)
        self._restart_rto_timer()

    def _grow_window(self, newly_acked: int) -> None:
        if self.cwnd < self.ssthresh:
            # Slow start: +1 per ACK.
            self.cwnd = min(self.cwnd + 1.0, self.wmax)
            if self.cwnd >= self.ssthresh:
                self._set_phase(_CONGESTION_AVOIDANCE)
            else:
                self._log.record_cwnd(self._simulator.now, self.cwnd, self._phase)
        else:
            if self._phase == _SLOW_START:
                self._set_phase(_CONGESTION_AVOIDANCE)
            self.cwnd = min(self._ca_window(newly_acked), self.wmax)
            self._log.record_cwnd(self._simulator.now, self.cwnd, self._phase)

    def _on_duplicate_ack(self) -> None:
        if self._phase == _TIMEOUT_RECOVERY:
            return
        self._dupacks += 1
        if self._phase == _FAST_RECOVERY:
            # Window inflation: each further dup ACK signals one more
            # packet has left the network.
            self.cwnd += 1.0
            self._log.record_cwnd(self._simulator.now, self.cwnd, self._phase)
            return
        if self._dupacks == _DUPACK_THRESHOLD and self.has_outstanding_data:
            self._enter_fast_recovery()

    def _enter_fast_recovery(self) -> None:
        self._on_loss_event()
        self._recover_point = self.snd_max
        self._set_phase(_FAST_RECOVERY)
        self._transmit(self.snd_una, is_retransmission=True)
        self._restart_rto_timer()

    # -- timeout handling ---------------------------------------------------

    def _ensure_rto_armed(self) -> None:
        if self._rto_timer is None and self.snd_una < self.snd_max:
            self._rto_timer = self._simulator.schedule(
                self.rto.current_rto, self._on_rto_fired
            )
            self.rto_armed += 1

    def _restart_rto_timer(self) -> None:
        if self._rto_timer is not None:
            self._rto_timer.cancel()
            self._rto_timer = None
        self._ensure_rto_armed()

    def _on_rto_fired(self) -> None:
        self._rto_timer = None
        if not self.has_outstanding_data:
            return  # everything acknowledged in the meantime
        now = self._simulator.now
        if self._phase != _TIMEOUT_RECOVERY:
            # First timeout of a sequence: start a recovery phase.
            self._on_timeout_collapse()
            self._current_recovery = RecoveryPhaseRecord(start_time=now)
            self._recovery_records = []
            self._log.recovery_phases.append(self._current_recovery)
            self._set_phase(_TIMEOUT_RECOVERY)
        rto_value = self.rto.current_rto
        self._log.timeouts.append(
            TimeoutRecord(
                time=now,
                seq=self.snd_una,
                backoff_exponent=self.rto.backoff_exponent,
                rto_value=rto_value,
                sequence_index=len(self._log.recovery_phases) - 1,
            )
        )
        if self._current_recovery is not None:
            self._current_recovery.timeouts += 1
        self.rto.on_timeout()
        self._transmit(self.snd_una, is_retransmission=True)
        # Pull the send pointer back: once recovery completes, slow
        # start resumes from just past the retransmitted segment and
        # resends the rest of the outstanding window.
        self.snd_nxt = self.snd_una + 1
        self._ensure_rto_armed()

    def _finish_timeout_recovery(self, time: float) -> None:
        if self._current_recovery is not None:
            self._current_recovery.end_time = time
            self._count_recovery_losses(self._current_recovery)
            self._current_recovery = None
        # Slow start resumes after recovery (paper Fig. 2).
        self._set_phase(_SLOW_START)

    def _count_recovery_losses(self, phase: RecoveryPhaseRecord) -> None:
        """Fill in retransmission loss counts for the finished phase.

        Counts the log rows collected while the phase was open; a
        packet's fate (``dropped``) is decided synchronously at send
        time, so the counts are exact by the time the resuming ACK
        closes the phase.
        """
        packets = self._log.data_packets
        for row in self._recovery_records:
            if packets.subflow_id[row] != self.subflow_id:
                continue
            phase.retransmissions += 1
            if packets.is_set("dropped", row):
                phase.retransmissions_lost += 1
        self._recovery_records = []

    # -- transmission -------------------------------------------------------

    def _transmit(self, seq: int, is_retransmission: bool) -> None:
        now = self._simulator.now
        in_recovery = self._phase == _TIMEOUT_RECOVERY
        segment = Segment(
            seq=seq,
            transmission_id=self._transmission_counter,
            send_time=now,
            is_retransmission=is_retransmission,
            in_timeout_recovery=in_recovery and is_retransmission,
            subflow_id=self.subflow_id,
        )
        self._transmission_counter += 1
        previous = self._send_info.get(seq)
        self._send_info[seq] = (now, is_retransmission or (previous is not None and previous[1]))
        row = segment.transmission_id
        self._log.record_data_send(
            row, seq, now, is_retransmission, segment.in_timeout_recovery, self.subflow_id
        )
        if segment.in_timeout_recovery and self._current_recovery is not None:
            self._recovery_records.append(row)
        self._data_link.send(segment)
        if (
            segment.in_timeout_recovery
            and self.redundant_retransmit_link is not None
        ):
            # MPTCP-style double retransmission (paper Section V-B):
            # the same payload also travels the alternate subflow; the
            # receiver keeps whichever copy survives.
            copy = Segment(
                seq=seq,
                transmission_id=self._transmission_counter,
                send_time=now,
                is_retransmission=True,
                in_timeout_recovery=True,
                subflow_id=self.subflow_id + 1,
            )
            self._transmission_counter += 1
            self._log.record_data_send(
                copy.transmission_id, seq, now, True, True, copy.subflow_id
            )
            self.redundant_retransmit_link.send(copy)

    def _set_phase(self, phase: str) -> None:
        self._phase = phase
        self._log.record_cwnd(self._simulator.now, self.cwnd, phase)
