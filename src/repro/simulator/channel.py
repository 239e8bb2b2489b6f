"""One-way links and pluggable packet-loss processes.

The paper's two directions behave very differently in high-speed
mobility (data loss ≈ 0.75%, ACK loss ≈ 0.66% but *bursty*), so every
connection owns two independent :class:`Link` instances, each with its
own loss model and delay process.

Loss models implement a single method, ``is_lost(now) -> bool``, drawn
once per wire transmission.  Provided models:

* :class:`BernoulliLoss` — i.i.d. loss (the Padhye world).
* :class:`GilbertElliottLoss` — two-state burst loss; the bad state
  captures handoff/outage episodes that wipe whole rounds of ACKs, the
  mechanism behind the paper's spurious timeouts.
* :class:`HandoffLoss` — deterministic outage windows from an explicit
  handoff schedule (produced by :mod:`repro.hsr`), with elevated loss
  inside the window and a base rate outside.
* :class:`TraceDrivenLoss` — scripted per-transmission outcomes for
  the micro-simulations behind paper Figs. 5, 7 and 11.
* :class:`CompositeLoss` — union of several processes (lost if any
  component loses the packet).

**Batched-RNG invariant.**  The stochastic models consume their stream
through pre-drawn blocks of raw uniforms (:meth:`RngStream.random_block`)
instead of one scalar call per transmission; every call still decides
exactly one packet.  The *sequence of raw uniforms consumed* — and
therefore every loss decision — is identical to the scalar
implementation, because (a) ``random.Random.random()`` yields the same
values whether drawn eagerly or lazily, (b) a draw is consumed exactly
when the scalar code would consume one (probabilities ``<= 0`` and
``>= 1`` short-circuit without a draw, matching
:meth:`RngStream.bernoulli`), and (c) exponential sojourns are computed
from a raw uniform with the same expression CPython's ``expovariate``
uses, bit for bit.  The only observable difference is that the
*underlying* stream may be over-advanced by up to one block at the end
of a run — which is why a stream feeding a loss model must not be
shared with any other consumer (scenario builders spawn a dedicated
child stream per model).
"""

from __future__ import annotations

from math import log as _log
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as _np

from repro.util.errors import ConfigurationError
from repro.util.rng import RngStream

__all__ = [
    "LossModel",
    "NoLoss",
    "BernoulliLoss",
    "RoundCorrelatedLoss",
    "GilbertElliottLoss",
    "HandoffLoss",
    "TraceDrivenLoss",
    "CompositeLoss",
    "Link",
]

#: Raw uniforms pre-drawn per refill.  Big enough to amortise the
#: Python-level call into :class:`RngStream`, small enough that the
#: tail over-draw at end of flow is negligible.
_UNIFORM_BLOCK = 256


class LossModel:
    """Base class: decides, per wire transmission, whether it is lost."""

    __slots__ = ()

    def is_lost(self, now: float) -> bool:  # pragma: no cover - interface
        raise NotImplementedError


class NoLoss(LossModel):
    """A perfect channel."""

    __slots__ = ()

    def is_lost(self, now: float) -> bool:
        return False


class _BufferedLoss(LossModel):
    """Shared machinery: a block-buffered uniform supply for one stream.

    Subclasses own their :class:`RngStream` exclusively (see the
    batched-RNG invariant in the module docstring) and call
    :meth:`_bernoulli` / :meth:`_next_uniform` instead of the scalar
    stream methods.

    Models whose per-packet probability is a *fixed* value in (0, 1)
    (Bernoulli loss, the round-correlated trigger) set ``_fixed_rate``;
    every refill then precomputes the whole block's Bernoulli outcomes
    in one vectorised numpy pass, so the
    per-packet cost collapses to a list index, read inline by each
    model's ``is_lost``.  The raw-uniform cursor
    and the outcome cursor are the same cursor — mixed consumption
    (e.g. Gilbert–Elliott sojourn draws between packet draws) walks a
    single underlying uniform sequence, exactly as the scalar code
    would.
    """

    __slots__ = ("_rng", "_block", "_cursor", "_fixed_rate", "_outcomes")

    def __init__(self, rng: RngStream, fixed_rate: Optional[float] = None) -> None:
        self._rng = rng
        self._block: Sequence[float] = ()
        self._cursor = 0
        self._fixed_rate = (
            fixed_rate if fixed_rate is not None and 0.0 < fixed_rate < 1.0 else None
        )
        self._outcomes: List[bool] = []

    def _refill(self) -> None:
        """Draw the next uniform block; precompute fixed-rate outcomes."""
        block = self._block = self._rng.random_block(_UNIFORM_BLOCK)
        rate = self._fixed_rate
        if rate is not None:
            self._outcomes = (_np.frombuffer(block) < rate).tolist()
        self._cursor = 0

    def _next_uniform(self) -> float:
        """The next raw uniform, refilling the block when exhausted."""
        cursor = self._cursor
        block = self._block
        if cursor >= len(block):
            self._refill()
            block = self._block
            cursor = 0
        self._cursor = cursor + 1
        return block[cursor]

    def _bernoulli(self, probability: float) -> bool:
        """Block-buffered Bernoulli draw, consuming uniforms exactly as
        the scalar :meth:`RngStream.bernoulli` would."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        cursor = self._cursor
        block = self._block
        if cursor >= len(block):
            self._refill()
            block = self._block
            cursor = 0
        self._cursor = cursor + 1
        return block[cursor] < probability


class BernoulliLoss(_BufferedLoss):
    """Independent loss with a fixed rate."""

    __slots__ = ("rate",)

    def __init__(self, rate: float, rng: RngStream) -> None:
        if not 0.0 <= rate < 1.0:
            raise ConfigurationError(f"loss rate must be in [0, 1), got {rate}")
        super().__init__(rng, fixed_rate=rate)
        self.rate = rate

    def is_lost(self, now: float) -> bool:
        if self.rate <= 0.0:
            return False
        cursor = self._cursor
        outcomes = self._outcomes
        if cursor >= len(outcomes):
            self._refill()
            outcomes = self._outcomes
            cursor = 0
        self._cursor = cursor + 1
        return outcomes[cursor]


class RoundCorrelatedLoss(_BufferedLoss):
    """The paper's in-round loss correlation, as a channel process.

    Both the Padhye model and the paper assume that "after the first
    packet loss, the subsequent packets in that round are also lost".
    This model triggers a loss event with ``trigger_rate`` per packet
    and then drops everything for ``round_duration`` (≈ one RTT) — the
    remainder of the round.  The resulting lifetime loss rate is
    roughly ``trigger_rate × (packets per half round)``.
    """

    __slots__ = ("trigger_rate", "round_duration", "_burst_until")

    def __init__(
        self, rng: RngStream, trigger_rate: float, round_duration: float
    ) -> None:
        if not 0.0 <= trigger_rate < 1.0:
            raise ConfigurationError(
                f"trigger_rate must be in [0, 1), got {trigger_rate}"
            )
        if round_duration <= 0.0:
            raise ConfigurationError(
                f"round_duration must be positive, got {round_duration}"
            )
        super().__init__(rng, fixed_rate=trigger_rate)
        self.trigger_rate = trigger_rate
        self.round_duration = round_duration
        self._burst_until = -float("inf")

    @property
    def in_burst_until(self) -> float:
        return self._burst_until

    def is_lost(self, now: float) -> bool:
        # Inside a burst no draw is consumed, so a triggered loss
        # silences the trigger stream for the rest of the round.
        if now < self._burst_until:
            return True
        if self.trigger_rate <= 0.0:
            return False
        # One precomputed outcome per packet (see _BufferedLoss).
        cursor = self._cursor
        outcomes = self._outcomes
        if cursor >= len(outcomes):
            self._refill()
            outcomes = self._outcomes
            cursor = 0
        self._cursor = cursor + 1
        if outcomes[cursor]:
            self._burst_until = now + self.round_duration
            return True
        return False


class GilbertElliottLoss(_BufferedLoss):
    """Two-state Markov (Gilbert–Elliott) burst-loss process.

    State transitions are evaluated in continuous time via exponential
    sojourns, so the burst structure is independent of the packet rate:
    a 300 km/h handoff knocks out everything sent during the bad-state
    episode, exactly the "ACK burst loss" phenomenology of the paper.

    The long-run average loss rate is
    ``π_bad·loss_bad + π_good·loss_good`` with
    ``π_bad = mean_bad / (mean_good + mean_bad)``.
    """

    __slots__ = (
        "mean_good",
        "mean_bad",
        "loss_good",
        "loss_bad",
        "_in_bad_state",
        "_state_expires",
    )

    def __init__(
        self,
        rng: RngStream,
        mean_good_duration: float,
        mean_bad_duration: float,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
    ) -> None:
        if mean_good_duration <= 0.0 or mean_bad_duration <= 0.0:
            raise ConfigurationError("state durations must be positive")
        if not (0.0 <= loss_good < 1.0 and 0.0 <= loss_bad <= 1.0):
            raise ConfigurationError("state loss rates out of range")
        super().__init__(rng)
        self.mean_good = mean_good_duration
        self.mean_bad = mean_bad_duration
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self._in_bad_state = False
        self._state_expires = rng.expovariate(1.0 / mean_good_duration)

    @property
    def stationary_loss_rate(self) -> float:
        """Long-run average loss probability of the process."""
        pi_bad = self.mean_bad / (self.mean_good + self.mean_bad)
        return pi_bad * self.loss_bad + (1.0 - pi_bad) * self.loss_good

    def _advance_to(self, now: float) -> None:
        while now >= self._state_expires:
            self._in_bad_state = not self._in_bad_state
            mean = self.mean_bad if self._in_bad_state else self.mean_good
            # Bit-identical to ``rng.expovariate(1.0 / mean)``: CPython
            # computes ``-log(1 - random()) / lambd``, and dividing by
            # the reciprocal (rather than multiplying by ``mean``)
            # preserves the exact float.
            lambd = 1.0 / mean
            self._state_expires += -_log(1.0 - self._next_uniform()) / lambd

    def is_lost(self, now: float) -> bool:
        if now >= self._state_expires:
            self._advance_to(now)
        rate = self.loss_bad if self._in_bad_state else self.loss_good
        return self._bernoulli(rate)


class HandoffLoss(_BufferedLoss):
    """Deterministic outage windows plus a base loss rate.

    ``outages`` is a sorted sequence of ``(start, end)`` intervals
    (seconds) during which packets are lost with ``loss_during``;
    outside them the loss rate is ``base_rate``.  The schedule comes
    from the HSR cell layout (:mod:`repro.hsr.cells`).
    """

    __slots__ = ("outages", "base_rate", "loss_during", "_cursor_outage")

    def __init__(
        self,
        rng: RngStream,
        outages: Sequence[Tuple[float, float]],
        base_rate: float = 0.0,
        loss_during: float = 1.0,
    ) -> None:
        if not 0.0 <= base_rate < 1.0 or not 0.0 <= loss_during <= 1.0:
            raise ConfigurationError("loss rates out of range")
        previous_end = -float("inf")
        for start, end in outages:
            if end <= start:
                raise ConfigurationError(f"empty outage interval ({start}, {end})")
            if start < previous_end:
                raise ConfigurationError("outage intervals must be sorted and disjoint")
            previous_end = end
        super().__init__(rng)
        self.outages = list(outages)
        self.base_rate = base_rate
        self.loss_during = loss_during
        self._cursor_outage = 0

    def in_outage(self, now: float) -> bool:
        """True when ``now`` falls inside an outage window."""
        outages = self.outages
        cursor = self._cursor_outage
        count = len(outages)
        while cursor < count and outages[cursor][1] <= now:
            cursor += 1
        self._cursor_outage = cursor
        if cursor >= count:
            return False
        start, end = outages[cursor]
        return start <= now < end

    def is_lost(self, now: float) -> bool:
        # in_outage and _bernoulli, inlined: this runs for every packet.
        outages = self.outages
        cursor = self._cursor_outage
        count = len(outages)
        while cursor < count and outages[cursor][1] <= now:
            cursor += 1
        self._cursor_outage = cursor
        if cursor < count and outages[cursor][0] <= now:
            rate = self.loss_during
        else:
            rate = self.base_rate
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        cursor = self._cursor
        block = self._block
        if cursor >= len(block):
            self._refill()
            block = self._block
            cursor = 0
        self._cursor = cursor + 1
        return block[cursor] < rate


class TraceDrivenLoss(LossModel):
    """Scripted outcomes: the n-th transmission is lost iff listed.

    ``lost_indices`` counts wire transmissions through this model
    starting at 0.  Transmissions beyond the script survive.
    """

    __slots__ = ("lost_indices", "_count")

    def __init__(self, lost_indices: Sequence[int]) -> None:
        self.lost_indices = frozenset(lost_indices)
        self._count = 0

    @property
    def transmissions_seen(self) -> int:
        return self._count

    def is_lost(self, now: float) -> bool:
        lost = self._count in self.lost_indices
        self._count += 1
        return lost


class CompositeLoss(LossModel):
    """Lost if any component process loses the packet."""

    __slots__ = ("components",)

    def __init__(self, components: Sequence[LossModel]) -> None:
        if not components:
            raise ConfigurationError("CompositeLoss needs at least one component")
        self.components = list(components)

    def is_lost(self, now: float) -> bool:
        # Evaluate all components so their internal states advance
        # uniformly regardless of short-circuiting; no intermediate
        # list is built.
        lost = False
        for component in self.components:
            if component.is_lost(now):
                lost = True
        return lost


class Link:
    """A one-way link: propagation delay + optional jitter + loss.

    ``deliver`` is called with (packet, arrival_time) when the packet
    survives; ``on_drop`` (if given) is called with (packet, send_time)
    when it does not — the trace layer uses it to mark lost packets the
    way the paper's Fig. 1 marks them at "-1".

    ``deliver`` is required at construction (a link with nowhere to
    deliver is a configuration error, and surfacing it when the first
    surviving packet arrives hides it behind the loss process).  Wiring
    cycles — the ACK link needs a sender that needs the data link —
    are closed with a late-binding lambda over the not-yet-constructed
    peer, which Python resolves at call time.
    """

    __slots__ = (
        "_simulator",
        "delay",
        "loss_model",
        "jitter",
        "deliver",
        "on_drop",
        "sent",
        "dropped",
        "_last_arrival",
    )

    def __init__(
        self,
        simulator,
        delay: float,
        loss_model: Optional[LossModel] = None,
        jitter: Optional[Callable[[], float]] = None,
        deliver: Optional[Callable] = None,
        on_drop: Optional[Callable] = None,
    ) -> None:
        if delay <= 0.0:
            raise ConfigurationError(f"link delay must be positive, got {delay}")
        if deliver is None:
            raise ConfigurationError(
                "Link needs a deliver callback at construction"
            )
        self._simulator = simulator
        self.delay = delay
        self.loss_model = loss_model or NoLoss()
        self.jitter = jitter
        self.deliver = deliver
        self.on_drop = on_drop
        self.sent = 0
        self.dropped = 0
        self._last_arrival = 0.0

    @property
    def loss_fraction(self) -> float:
        """Empirical loss fraction over everything sent so far."""
        return self.dropped / self.sent if self.sent else 0.0

    def send(self, packet) -> None:
        """Transmit one packet; it either arrives after delay(+jitter) or drops."""
        self.sent += 1
        simulator = self._simulator
        now = simulator.now
        if self.loss_model.is_lost(now):
            self.dropped += 1
            if self.on_drop is not None:
                self.on_drop(packet, now)
            return
        arrival = now + self.delay
        jitter = self.jitter
        if jitter is not None:
            extra = jitter()
            if extra > 0.0:
                arrival += extra
        # FIFO channel: jitter models (correlated) queueing delay, so a
        # packet can never overtake one sent earlier — i.i.d. reordering
        # would inject spurious fast retransmits no real cellular link
        # produces.
        if arrival < self._last_arrival:
            arrival = self._last_arrival
        else:
            self._last_arrival = arrival
        simulator.schedule_call(arrival - now, self.deliver, packet)

    def send_burst(self, packets: Sequence) -> None:
        """Transmit packets one :meth:`send` at a time (a holdover name
        for the benchmark's layer tracer; see ROADMAP item 4)."""
        for packet in packets:
            self.send(packet)
