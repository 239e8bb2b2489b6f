"""Resilient-campaign bookkeeping: retries, quarantine, and the report.

The paper's dataset (Table I) was collected under hostile radio
conditions where individual flows fail routinely; a campaign that
aborts on the first bad flow loses everything collected so far.  This
module holds the *accounting* side of per-flow isolation — the
:class:`RetryPolicy` that sets the attempt budget and derives
deterministic retry seeds, the failure taxonomy (:func:`classify`), and
the :class:`CampaignReport` a campaign returns alongside its partial
dataset — while the supervisor's attempt loop
(:class:`~repro.exec.supervise.SupervisedBackend`) decides what happens
after every failed attempt.

Everything here is deliberately wall-clock-free: two campaign runs with
the same root seed produce byte-identical reports
(:meth:`CampaignReport.to_json`), including under injected faults, so a
degraded run is exactly reproducible for debugging.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List

from repro.util.errors import (
    ConfigurationError,
    DeadlineExceededError,
    WorkerCrashError,
)
from repro.util.rng import derive_seed

__all__ = [
    "CampaignReport",
    "FAILURE_CLASSES",
    "FlowFailure",
    "QuarantineRecord",
    "RetryPolicy",
    "classify",
]

#: The failure taxonomy the retry layer reasons over.
#:
#: * ``transient`` — stochastic failures (degenerate channel draws,
#:   validation rejects); a reseeded retry genuinely rolls new dice.
#: * ``deterministic`` — same spec, same crash (bad configuration,
#:   a sim bug the seed reproduces exactly); retrying burns budget for
#:   nothing, so these quarantine at once.
#: * ``infrastructure`` — the *host* failed, not the flow (worker
#:   process death, deadline preemption, disk errors); the same seed is
#:   retried because the simulation itself was never at fault.
FAILURE_CLASSES = ("transient", "deterministic", "infrastructure")


@dataclass(frozen=True)
class FlowFailure:
    """One failed attempt at simulating one flow."""

    flow_id: str
    attempt: int  # 0 = first try, 1.. = retries
    seed: int  # the exact seed of the failed attempt (reproduces it)
    error_type: str
    error: str
    #: taxonomy bucket (``transient``/``deterministic``/``infrastructure``)
    #: plus the supervision-layer mechanisms ``worker_crash`` and
    #: ``deadline`` — both infrastructure-class for retry purposes, but
    #: named distinctly so reports show *how* the host failed
    failure_class: str = "transient"


@dataclass(frozen=True)
class QuarantineRecord:
    """A flow abandoned after exhausting its retry budget."""

    flow_id: str
    seed: int  # the flow's base seed (attempt 0)
    reason: str


@dataclass(frozen=True)
class RetryPolicy:
    """How many attempts a flow gets, and with which seeds.

    Retry seeds are derived from the flow's base seed with the same
    SplitMix64 path scheme the rest of the library uses, so they are
    deterministic, collision-free across attempts, and independent of
    how many *other* flows failed — the property behind byte-identical
    reports under retries.

    ``max_attempts`` is one budget for every kind of failure: raises,
    worker crashes and deadline kills all count against it.  Retries
    are taxonomy-aware (:data:`FAILURE_CLASSES`): a ``deterministic``
    failure is quarantined at once instead of being pointlessly re-run,
    a ``transient`` one is retried under a fresh seed, and a host-side
    one (``infrastructure``, ``worker_crash``, ``deadline``) reruns the
    same seed.  A retry runs at once: a reseeded simulation gains
    nothing from waiting.
    """

    max_retries: int = 2

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )

    @property
    def max_attempts(self) -> int:
        return self.max_retries + 1

    def seed_for_attempt(self, base_seed: int, attempt: int) -> int:
        """Seed for the given attempt (attempt 0 = the base seed)."""
        if attempt == 0:
            return base_seed
        return derive_seed(base_seed, "retry", attempt) & 0x7FFFFFFF


def classify(error: BaseException) -> str:
    """Taxonomy bucket for one failure (:data:`FAILURE_CLASSES`).

    ``ConfigurationError`` is deterministic by construction — the same
    spec produces the same crash on every attempt, so retrying it is
    pure waste.  Host-side failures (worker death, deadline preemption,
    I/O errors) are infrastructure: the same seed runs again because the
    *flow* was never at fault.  Everything else — simulation blow-ups,
    budget trips, validation rejects, injected chaos raises — is
    transient: a reseeded retry genuinely rolls new dice.
    """
    if isinstance(error, ConfigurationError):
        return "deterministic"
    if isinstance(error, (WorkerCrashError, DeadlineExceededError, OSError)):
        return "infrastructure"
    return "transient"


@dataclass
class CampaignReport:
    """Structured outcome of one resilient campaign run.

    ``attempted`` counts flows (not attempts); every attempted flow ends
    up either ``succeeded`` or ``quarantined``, so
    ``attempted == succeeded + quarantined`` always holds.  ``retried``
    counts extra attempts beyond each flow's first.

    The ``cache_*`` fields say how a store-backed run obtained its
    flows (served from the result store vs computed fresh).  They are
    deliberately **excluded** from :meth:`to_dict`/:meth:`to_json`:
    serialised reports stay byte-identical whether a campaign ran cold,
    warm, or without a store at all — use :meth:`cache_summary` to
    surface them.
    """

    attempted: int = 0
    succeeded: int = 0
    retried: int = 0
    quarantined: int = 0
    failures: List[FlowFailure] = field(default_factory=list)
    quarantines: List[QuarantineRecord] = field(default_factory=list)
    #: True when a signal drain stopped the campaign before every spec
    #: ran: the report covers only the flows that were attempted, and a
    #: re-run against the same result store executes exactly the
    #: remainder.  Serialised (a resumable report must say it is
    #: partial), so an interrupted report never byte-matches a complete
    #: one — by design.
    interrupted: bool = False
    #: flows served from an ambient result store without simulating
    cache_hits: int = 0
    #: flows computed fresh under an ambient result store
    cache_misses: int = 0
    #: subset of ``cache_misses`` recomputed after quarantining a
    #: corrupt store entry
    cache_corrupt: int = 0
    #: subset of ``cache_misses`` that ran uncached because the store's
    #: circuit breaker was open (or the store operation itself failed)
    cache_errors: int = 0

    @property
    def ok(self) -> bool:
        """True when every attempted flow eventually succeeded."""
        return self.quarantined == 0

    def record_failure(self, failure: FlowFailure) -> None:
        self.failures.append(failure)

    def record_quarantine(self, record: QuarantineRecord) -> None:
        self.quarantines.append(record)
        self.quarantined += 1

    def to_dict(self) -> Dict[str, object]:
        return {
            "attempted": self.attempted,
            "succeeded": self.succeeded,
            "retried": self.retried,
            "quarantined": self.quarantined,
            "interrupted": self.interrupted,
            "failures": [asdict(failure) for failure in self.failures],
            "quarantines": [asdict(record) for record in self.quarantines],
        }

    def to_json(self) -> str:
        """Canonical (sorted-key, compact) JSON — byte-identical across
        reruns with the same seed."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def summary(self) -> str:
        """One line for logs: ``17/20 flows ok, 5 retries, 3 quarantined``."""
        line = (
            f"{self.succeeded}/{self.attempted} flows ok, "
            f"{self.retried} retries, {self.quarantined} quarantined"
        )
        if self.interrupted:
            line += " (interrupted — rerun to resume)"
        return line

    def cache_summary(self) -> str:
        """One line on store behaviour: ``250 cached, 5 fresh, 1 corrupt``.

        Empty string when no store was in play (so callers can print it
        unconditionally without cluttering uncached runs).
        """
        if not (self.cache_hits or self.cache_misses):
            return ""
        line = f"{self.cache_hits} cached, {self.cache_misses} fresh"
        if self.cache_corrupt:
            line += f", {self.cache_corrupt} corrupt"
        if self.cache_errors:
            line += f", {self.cache_errors} uncached (store errors)"
        return line

    def format(self) -> str:
        """Multi-line human-readable rendering."""
        lines = [f"campaign report: {self.summary()}"]
        for failure in self.failures:
            lines.append(
                f"  attempt {failure.attempt} of {failure.flow_id} "
                f"(seed {failure.seed}) failed: "
                f"{failure.error_type}: {failure.error}"
            )
        for record in self.quarantines:
            lines.append(
                f"  quarantined {record.flow_id} (seed {record.seed}): "
                f"{record.reason}"
            )
        return "\n".join(lines)
