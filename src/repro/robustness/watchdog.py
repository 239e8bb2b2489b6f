"""Watchdog budgets: bounded simulations instead of hung campaigns.

A :class:`Watchdog` bundles the three guard rails the engine
understands — an event budget, a simulated-time budget, and a
wall-clock budget — into one value that can be passed explicitly to
:func:`~repro.simulator.connection.run_flow` or installed ambiently for
a whole CLI invocation as the ``watchdog`` field of
:func:`~repro.context.run_context` (how the ``--timeout-s`` /
``--max-events`` experiment flags are plumbed without threading
parameters through every experiment driver).

All three guards raise :class:`~repro.util.errors.BudgetExceededError`,
which the resilient campaign layer treats like any other per-flow
failure: record, retry with a fresh seed, quarantine if persistent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.util.errors import ConfigurationError

__all__ = [
    "DEFAULT_EVENT_BUDGET",
    "DEFAULT_WALL_CLOCK_S",
    "Watchdog",
]

#: Default per-flow event budget used by the CLI.  A full-scale 60 s
#: HSR flow processes on the order of 10^5 events; 50 million is three
#: orders of magnitude of headroom, so only a genuinely runaway loop
#: (an event that reschedules itself without advancing the clock) can
#: trip it.
DEFAULT_EVENT_BUDGET = 50_000_000

#: Default per-flow wall-clock budget (seconds) used by the CLI.
DEFAULT_WALL_CLOCK_S = 900.0


@dataclass(frozen=True)
class Watchdog:
    """Guard-rail configuration for one simulation run.

    ``None`` disables the corresponding guard; the all-``None`` default
    is byte-for-byte equivalent to pre-watchdog behaviour.
    """

    max_events: Optional[int] = None
    max_sim_time: Optional[float] = None
    wall_clock_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_events is not None and self.max_events <= 0:
            raise ConfigurationError(
                f"max_events must be positive, got {self.max_events}"
            )
        if self.max_sim_time is not None and self.max_sim_time <= 0:
            raise ConfigurationError(
                f"max_sim_time must be positive, got {self.max_sim_time}"
            )
        if self.wall_clock_s is not None and self.wall_clock_s <= 0:
            raise ConfigurationError(
                f"wall_clock_s must be positive, got {self.wall_clock_s}"
            )

    @classmethod
    def default(cls) -> "Watchdog":
        """The CLI's generous defaults (see module constants)."""
        return cls(
            max_events=DEFAULT_EVENT_BUDGET, wall_clock_s=DEFAULT_WALL_CLOCK_S
        )

    def run_kwargs(self) -> Dict[str, object]:
        """Keyword arguments for :meth:`repro.simulator.engine.Simulator.run`.

        The wall-clock deadline is anchored at call time, so build the
        kwargs immediately before ``run()``.
        """
        kwargs: Dict[str, object] = {}
        if self.max_events is not None:
            kwargs["event_budget"] = self.max_events
        if self.max_sim_time is not None:
            kwargs["time_budget"] = self.max_sim_time
        if self.wall_clock_s is not None:
            kwargs["wall_deadline"] = time.monotonic() + self.wall_clock_s
        return kwargs
