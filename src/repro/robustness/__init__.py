"""Fault injection and resilient campaign execution.

The paper's dataset was collected under hostile, highly variable radio
conditions; this subpackage makes the reproduction's long synthetic
campaigns survive the same regime:

* :mod:`repro.robustness.faults` — :class:`FaultPlan`, seeded chaos
  hooks (handoff storms, deep fades, ACK blackouts, RTT spikes) that
  wrap scenario channels;
* :mod:`repro.robustness.watchdog` — :class:`Watchdog` budgets that
  turn runaway simulations into catchable
  :class:`~repro.util.errors.BudgetExceededError`;
* :mod:`repro.robustness.campaign` — :class:`RetryPolicy` and the
  :class:`CampaignReport` returned by resilient
  :func:`~repro.traces.generator.generate_dataset` runs;
* :mod:`repro.robustness.validate` — post-capture trace validation
  backing the quarantine path.
"""

from repro.robustness.campaign import (
    FAILURE_CLASSES,
    CampaignReport,
    FlowFailure,
    QuarantineRecord,
    RetryPolicy,
)
from repro.robustness.faults import (
    FaultPlan,
    with_faults,
)
from repro.robustness.validate import ValidationResult, check_trace, validate_trace
from repro.robustness.watchdog import (
    DEFAULT_EVENT_BUDGET,
    DEFAULT_WALL_CLOCK_S,
    Watchdog,
)

__all__ = [
    "CampaignReport",
    "DEFAULT_EVENT_BUDGET",
    "DEFAULT_WALL_CLOCK_S",
    "FAILURE_CLASSES",
    "FaultPlan",
    "FlowFailure",
    "QuarantineRecord",
    "RetryPolicy",
    "ValidationResult",
    "Watchdog",
    "check_trace",
    "validate_trace",
    "with_faults",
]
