"""Retransmission-timeout estimation (RFC 6298) with exponential backoff.

The estimator keeps the classic smoothed RTT / RTT-variance pair and
derives ``RTO = SRTT + max(G, K·RTTVAR)``.  Consecutive timeouts double
the timer up to ``64×`` the current base value — the cap the paper
describes ("this doubling will continue until the timer reaches 64T",
Section III-B) and mirrors in its ``f(p)`` polynomial (Eq. 14).
"""

from __future__ import annotations

from repro.util.errors import ConfigurationError

__all__ = ["RtoEstimator", "MAX_BACKOFF_FACTOR"]

#: Exponential backoff cap: the timer never exceeds 64x its base value.
MAX_BACKOFF_FACTOR = 64

_ALPHA = 1.0 / 8.0  # RFC 6298 smoothing gain for SRTT
_BETA = 1.0 / 4.0  # RFC 6298 smoothing gain for RTTVAR
_K = 4.0  # RTTVAR multiplier


class RtoEstimator:
    """RFC 6298 RTO computation plus the 64x exponential backoff."""

    def __init__(
        self,
        initial_rto: float = 1.0,
        min_rto: float = 0.2,
        max_rto: float = 60.0,
        clock_granularity: float = 0.01,
    ) -> None:
        if initial_rto <= 0.0:
            raise ConfigurationError(f"initial_rto must be positive, got {initial_rto}")
        if min_rto <= 0.0 or max_rto < min_rto:
            raise ConfigurationError(
                f"need 0 < min_rto <= max_rto, got {min_rto}, {max_rto}"
            )
        self.initial_rto = initial_rto
        self.min_rto = min_rto
        self.max_rto = max_rto
        self.granularity = clock_granularity
        self.srtt: float = 0.0
        self.rttvar: float = 0.0
        self._has_sample = False
        self._backoff_exponent = 0

    @property
    def backoff_exponent(self) -> int:
        """Number of consecutive backoffs applied (0 = none)."""
        return self._backoff_exponent

    @property
    def base_rto(self) -> float:
        """The un-backed-off timer value."""
        if not self._has_sample:
            return self._clamp(self.initial_rto)
        return self._clamp(self.srtt + max(self.granularity, _K * self.rttvar))

    @property
    def current_rto(self) -> float:
        """The timer value including exponential backoff (capped at 64x).

        :attr:`base_rto` and :meth:`_clamp` written out in one
        expression, with the same operations in the same order: every
        RTO arm reads it.
        """
        return min(
            min(
                max(
                    self.srtt + max(self.granularity, _K * self.rttvar)
                    if self._has_sample
                    else self.initial_rto,
                    self.min_rto,
                ),
                self.max_rto,
            )
            * min(2**self._backoff_exponent, MAX_BACKOFF_FACTOR),
            self.max_rto * MAX_BACKOFF_FACTOR,
        )

    def on_measurement(self, rtt_sample: float) -> None:
        """Fold in an RTT sample (Karn's rule: callers must only pass
        samples from segments that were never retransmitted)."""
        if rtt_sample <= 0.0:
            raise ConfigurationError(f"rtt sample must be positive, got {rtt_sample}")
        if not self._has_sample:
            self.srtt = rtt_sample
            self.rttvar = rtt_sample / 2.0
            self._has_sample = True
        else:
            self.rttvar = (1.0 - _BETA) * self.rttvar + _BETA * abs(
                self.srtt - rtt_sample
            )
            self.srtt = (1.0 - _ALPHA) * self.srtt + _ALPHA * rtt_sample

    def on_timeout(self) -> None:
        """Apply one exponential backoff step (timer doubles, cap 64x)."""
        if 2**self._backoff_exponent < MAX_BACKOFF_FACTOR:
            self._backoff_exponent += 1

    def on_recovery(self) -> None:
        """A new ACK arrived: collapse the backoff."""
        self._backoff_exponent = 0

    def _clamp(self, value: float) -> float:
        return min(max(value, self.min_rto), self.max_rto)
