"""A BBR-style rate-based sender: model the pipe, don't fill the queue.

Where every loss-based variant infers capacity from drops, BBR
(Cardwell et al., "BBR: Congestion-Based Congestion Control", ACM
Queue 2016) maintains an explicit model of the path — the windowed-max
delivery rate ``bw`` and the windowed-min round-trip ``min_rtt`` — and
keeps ``cwnd`` pinned to a gain times the estimated
bandwidth-delay product.  The probing state machine:

* **STARTUP** — exponential search: high gain until the delivery rate
  stops growing (three rounds without a 25% gain);
* **DRAIN** — one deflation phase emptying the queue STARTUP built;
* **PROBE_BW** — steady state: an eight-phase pacing-gain cycle
  (1.25, 0.75, then six neutral rounds) perturbs the rate to re-probe
  for freed capacity;
* **PROBE_RTT** — when the min-RTT sample goes stale (10 s), dip the
  window to a few segments so the queue drains and the propagation
  delay can be re-measured.

Sends are *paced*: instead of dumping a window-sized burst per ACK,
the sender emits fixed quanta through the base sender's ``_send_range``
(one :meth:`~repro.simulator.channel.Link.send` per packet, not a
batched path), spaced by the engine's event wheel at the modelled
rate.  Loss handling (fast recovery bookkeeping, RTO plumbing) is
inherited; a loss event does not collapse the model — BBR's bet,
tested here against the paper's channel, is that HSR loss is noise,
not congestion signal.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Optional

from repro.cc.info import BbrParams
from repro.simulator.engine import EventHandle
from repro.simulator.sender_base import (
    _MIN_SSTHRESH,
    _TIMEOUT_RECOVERY,
    BaseSender,
)

__all__ = ["BbrSender"]

_STARTUP = "startup"
_DRAIN = "drain"
_PROBE_BW = "probe_bw"
_PROBE_RTT = "probe_rtt"

#: PROBE_BW pacing-gain cycle (BBR v1): probe up, drain, six cruise rounds.
_CYCLE_GAINS = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)

#: floor of the model window, so the ACK clock never starves
_MIN_CWND = 4.0


class BbrSender(BaseSender):
    """Rate-based sender: cwnd follows a bw x min_rtt path model."""

    __slots__ = (
        "startup_gain",
        "cwnd_gain",
        "probe_rtt_interval",
        "probe_rtt_duration",
        "pacing_quantum",
        "_mode",
        "_min_rtt",
        "_min_rtt_stamp",
        "_bw_filter",
        "_round_max_bw",
        "_max_bw",
        "_delivered",
        "_last_ack_time",
        "_round_end",
        "_full_bw",
        "_full_bw_rounds",
        "_cycle_index",
        "_cycle_stamp",
        "_probe_rtt_done",
        "_pace_timer",
    )

    def __init__(
        self,
        *args,
        startup_gain: float = 2.885,
        cwnd_gain: float = 2.0,
        probe_rtt_interval: float = 10.0,
        probe_rtt_duration: float = 0.2,
        bw_window_rtts: float = 10.0,
        pacing_quantum: int = 4,
        **kwargs,
    ) -> None:
        params = BbrParams(
            startup_gain=startup_gain,
            cwnd_gain=cwnd_gain,
            probe_rtt_interval=probe_rtt_interval,
            probe_rtt_duration=probe_rtt_duration,
            bw_window_rtts=bw_window_rtts,
            pacing_quantum=pacing_quantum,
        )
        super().__init__(*args, **kwargs)
        self.startup_gain = params.startup_gain
        self.cwnd_gain = params.cwnd_gain
        self.probe_rtt_interval = params.probe_rtt_interval
        self.probe_rtt_duration = params.probe_rtt_duration
        self.pacing_quantum = params.pacing_quantum
        self._mode = _STARTUP
        self._min_rtt: Optional[float] = None
        self._min_rtt_stamp = 0.0
        #: per-round bandwidth maxima; the max over the deque is the
        #: windowed-max filter, aged out round by round
        self._bw_filter: deque = deque(maxlen=max(int(params.bw_window_rtts), 1))
        self._round_max_bw = 0.0
        self._max_bw = 0.0
        self._delivered = 0
        self._last_ack_time = -1.0
        self._round_end = 0
        self._full_bw = 0.0
        self._full_bw_rounds = 0
        self._cycle_index = 0
        self._cycle_stamp = 0.0
        self._probe_rtt_done = 0.0
        self._pace_timer: Optional[EventHandle] = None

    # -- the path model ----------------------------------------------------

    @property
    def mode(self) -> str:
        """The probing state machine's current mode."""
        return self._mode

    def _gain(self) -> float:
        if self._mode == _STARTUP:
            return self.startup_gain
        if self._mode == _DRAIN:
            return 1.0 / self.startup_gain
        if self._mode == _PROBE_BW:
            return _CYCLE_GAINS[self._cycle_index]
        return 1.0  # PROBE_RTT: the cwnd floor does the work

    def _bdp(self) -> Optional[float]:
        if self._max_bw <= 0.0 or self._min_rtt is None:
            return None
        return self._max_bw * self._min_rtt

    def _model_cwnd(self) -> Optional[float]:
        bdp = self._bdp()
        if bdp is None:
            return None
        if self._mode == _PROBE_RTT:
            return _MIN_CWND
        gain = self.cwnd_gain if self._mode == _PROBE_BW else self._gain()
        return min(max(gain * bdp, _MIN_CWND), self.wmax)

    def _on_rtt_sample(self, rtt: float, now: float) -> None:
        expired = now - self._min_rtt_stamp > self.probe_rtt_interval
        if self._min_rtt is None or rtt <= self._min_rtt or expired:
            self._min_rtt = rtt
            self._min_rtt_stamp = now

    def _after_new_ack(self, newly_acked: int, now: float) -> None:
        self._delivered += newly_acked
        if 0.0 <= self._last_ack_time < now:
            rate = newly_acked / (now - self._last_ack_time)
            if rate > self._round_max_bw:
                self._round_max_bw = rate
        self._last_ack_time = now
        if self.snd_una >= self._round_end:
            self._round_end = self.snd_max
            self._on_round_end()
        self._advance_mode(now)
        model = self._model_cwnd()
        if model is not None:
            self.cwnd = model

    def _on_round_end(self) -> None:
        if self._round_max_bw > 0.0:
            self._bw_filter.append(self._round_max_bw)
            self._max_bw = max(self._bw_filter)
        self._round_max_bw = 0.0
        if self._mode == _STARTUP:
            # Full-pipe detection: three rounds without 25% growth.
            if self._max_bw > self._full_bw * 1.25:
                self._full_bw = self._max_bw
                self._full_bw_rounds = 0
            elif self._max_bw > 0.0:
                self._full_bw_rounds += 1
                if self._full_bw_rounds >= 3:
                    self._mode = _DRAIN

    def _advance_mode(self, now: float) -> None:
        if self._mode == _DRAIN:
            bdp = self._bdp()
            if bdp is not None and self.inflight <= bdp:
                self._enter_probe_bw(now)
        if self._mode == _PROBE_BW:
            if self._min_rtt is not None and now - self._cycle_stamp > self._min_rtt:
                self._cycle_index = (self._cycle_index + 1) % len(_CYCLE_GAINS)
                self._cycle_stamp = now
            if now - self._min_rtt_stamp > self.probe_rtt_interval:
                self._mode = _PROBE_RTT
                self._probe_rtt_done = now + self.probe_rtt_duration
        elif self._mode == _PROBE_RTT and now >= self._probe_rtt_done:
            # The dip drained the queue; the freshest sample is the floor.
            self._min_rtt_stamp = now
            self._enter_probe_bw(now)

    def _enter_probe_bw(self, now: float) -> None:
        self._mode = _PROBE_BW
        self._cycle_index = 0
        self._cycle_stamp = now

    # -- loss and timeout: the model shrugs --------------------------------

    def _on_loss_event(self) -> None:
        # No multiplicative decrease: recovery still retransmits and
        # bounds inflight, but the exit window is the model's, not half.
        model = self._model_cwnd()
        self.ssthresh = max(
            model if model is not None else self.cwnd, _MIN_SSTHRESH
        )
        self.cwnd = self.ssthresh

    def _on_timeout_collapse(self) -> None:
        # Conservative during timeout recovery (the retransmit-only
        # phase), but ssthresh keeps the model so the post-recovery
        # slow start rejoins it quickly.
        model = self._model_cwnd()
        self.ssthresh = max(
            model if model is not None else self.cwnd, _MIN_SSTHRESH
        )
        self.cwnd = 1.0
        self._last_ack_time = -1.0  # the recovery gap is not a rate sample

    # -- pacing -------------------------------------------------------------

    def _pace_interval(self) -> Optional[float]:
        if self._max_bw <= 0.0:
            return None
        rate = self._gain() * self._max_bw
        if rate <= 0.0:
            return None
        return self.pacing_quantum / rate

    def pump(self) -> None:
        """Window-gated like the base sender, but rate-paced.

        Until the model has a bandwidth estimate, sends fall back to
        the base window loop (STARTUP's first rounds are ACK-clocked
        anyway).  With an estimate, each firing emits one quantum
        through ``_send_range``, one link ``send`` per packet, and the
        next quantum is an engine event ``quantum/rate`` later.
        """
        if self._phase == _TIMEOUT_RECOVERY:
            return
        if self._pace_interval() is None:
            super().pump()
            return
        if self._pace_timer is None:
            self._pace_fire()
        else:
            self._ensure_rto_armed()

    def _pace_fire(self) -> None:
        self._pace_timer = None
        if self._phase == _TIMEOUT_RECOVERY:
            return
        limit = self.snd_una + math.floor(self._send_window())
        if self.snd_nxt < limit:
            self._send_range(min(limit, self.snd_nxt + self.pacing_quantum))
            interval = self._pace_interval()
            if interval is not None and self.snd_nxt < limit:
                self._pace_timer = self._simulator.schedule(
                    interval, self._pace_fire
                )
        self._ensure_rto_armed()
