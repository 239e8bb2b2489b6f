"""Executing FlowSpec batches: serial or multi-process, byte-identical.

This is the single funnel every campaign and sweep goes through.  The
:class:`Executor` takes a list of :class:`~repro.exec.spec.FlowSpec`,
runs each with the resilient attempt loop (retry with deterministically
reseeded attempts, quarantine on exhaustion), and assembles a
:class:`~repro.robustness.campaign.CampaignReport` **in spec order** —
so a 4-worker run produces the same traces and the same report bytes as
a serial run of the same batch.

:meth:`Executor.run` is one fixed pipeline: partition the batch into
result-store hits and misses (when a store is ambient), run the misses
through :class:`~repro.exec.supervise.SupervisedBackend` — the one pool
loop: crash recovery, deadlines, chaos, signal drain — write the fresh
results back, and build the report.  A backend is only a *placement*,
saying where the misses run:

* :class:`SerialBackend` — in the calling process, in order; the
  default.
* :class:`ProcessPoolBackend` — a spawn-context process pool.  Specs
  are self-contained and picklable, and every random stream is derived
  from the spec's own seed, so moving a flow to another process cannot
  change its bytes.  With ``auto=True`` a short serial probe decides
  per batch whether the pool is worth its spawn cost.

Ambient settings come from the one run context
(:func:`~repro.context.run_context`), a ContextVar that does **not**
propagate to spawned workers; the executor therefore bakes the
context's watchdog into each spec at submit time, before anything
crosses a process boundary.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.context import RunContext, current_run_context
from repro.exec.spec import FlowSpec
from repro.robustness.campaign import (
    CampaignReport,
    FlowFailure,
    QuarantineRecord,
    RetryPolicy,
)
from repro.simulator.connection import FlowResult, run_flow
from repro.telemetry.campaign import CampaignTelemetry
from repro.telemetry.progress import ProgressReporter
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    # repro.traces imports repro.exec (the generator runs on the
    # executor); capture is therefore imported lazily at run time.
    from repro.traces.events import FlowTrace

__all__ = [
    "ExecutionResult",
    "Executor",
    "FlowOutcome",
    "ProcessPoolBackend",
    "SerialBackend",
    "simulate_spec",
]


def simulate_spec(spec: FlowSpec) -> Tuple[FlowResult, Optional["FlowTrace"]]:
    """Run one spec exactly once — no retries, no report.

    Returns ``(result, trace)``; the trace is None unless the spec
    carries metadata.  This is the primitive the executor's attempt
    loop calls, and the right entry point for single-flow experiment
    code that wants a spec's semantics without campaign bookkeeping.
    """
    resolved = spec.resolve()
    result = run_flow(
        resolved.config,
        resolved.data_loss,
        resolved.ack_loss,
        seed=spec.seed,
        redundant_data_loss=resolved.redundant_data_loss,
        variant=spec.cc,
        cc_params=spec.cc_params,
        bottleneck_rate=spec.bottleneck_rate,
        bottleneck_buffer=spec.bottleneck_buffer,
        watchdog=spec.watchdog,
    )
    trace: Optional["FlowTrace"] = None
    if spec.metadata is not None:
        from repro.traces.capture import capture_flow

        trace = capture_flow(result, spec.metadata, validate=spec.validate)
    return result, trace


@dataclass
class FlowOutcome:
    """What happened to one spec: a result or a quarantine, plus the
    failure records accumulated along the way."""

    index: int
    spec: FlowSpec
    result: Optional[FlowResult]
    trace: Optional["FlowTrace"]
    failures: List[FlowFailure] = field(default_factory=list)
    quarantine: Optional[QuarantineRecord] = None
    attempts: int = 1
    #: how a cached run obtained this outcome: "hit" (served from the
    #: result store), "miss" (computed fresh), "corrupt" (recomputed
    #: after quarantining a damaged entry), "error" (ran uncached
    #: because the store was failing), or None (no store in play)
    cache_state: Optional[str] = None
    #: True for a placeholder emitted by a signal drain: the spec never
    #: ran this campaign and is excluded from report accounting (the
    #: report is marked ``interrupted`` instead)
    skipped: bool = False

    @property
    def ok(self) -> bool:
        return self.quarantine is None

    def __reduce__(self):
        # Across a process boundary the log travels as its columns (a
        # FlowLog pickles as FlowLog.to_columns).  A trace captured from
        # the log shares its column sets, so only its metadata travels
        # and the trace is re-captured from the restored log, as a store
        # hit does.
        result, trace, metadata = self.result, self.trace, None
        if (
            result is not None
            and trace is not None
            and trace.data_packets is result.log.data_packets
            and trace.acks is result.log.acks
            and trace.timeouts is result.log.timeouts
            and trace.recovery_phases is result.log.recovery_phases
        ):
            trace, metadata = None, trace.metadata
        return (
            _restore_outcome,
            (
                self.index,
                self.spec,
                result,
                trace,
                metadata,
                self.failures,
                self.quarantine,
                self.attempts,
                self.cache_state,
                self.skipped,
            ),
        )


def _restore_outcome(
    index, spec, result, trace, metadata, failures, quarantine, attempts,
    cache_state, skipped,
) -> FlowOutcome:
    """Unpickle a :class:`FlowOutcome` (see its ``__reduce__``)."""
    if metadata is not None:
        from repro.traces.capture import capture_flow

        trace = capture_flow(result, metadata)
    return FlowOutcome(
        index=index,
        spec=spec,
        result=result,
        trace=trace,
        failures=failures,
        quarantine=quarantine,
        attempts=attempts,
        cache_state=cache_state,
        skipped=skipped,
    )


def _execute_payload(
    payload: Tuple[int, FlowSpec, RetryPolicy],
) -> FlowOutcome:
    """The per-flow attempt loop; module-level so backends can pickle it.

    Failure accounting mirrors the campaign contract: every attempt's
    exception becomes a :class:`FlowFailure` carrying the exact seed
    that reproduces it, and a flow that exhausts its budget becomes a
    :class:`QuarantineRecord` keyed by its base seed.

    The loop is taxonomy-aware
    (:data:`~repro.robustness.campaign.FAILURE_CLASSES`): a failure the
    policy classifies as ``deterministic`` (same spec, same crash —
    e.g. :class:`~repro.util.errors.ConfigurationError`) quarantines on
    attempt 0 instead of burning the retry budget.  A retry runs at
    once: a reseeded simulation gains nothing from waiting.
    """
    index, spec, policy = payload
    failures: List[FlowFailure] = []
    last_error = "unknown"
    for attempt in range(policy.max_attempts):
        seed = policy.seed_for_attempt(spec.seed, attempt)
        attempt_spec = spec if attempt == 0 else spec.for_attempt(seed)
        try:
            result, trace = simulate_spec(attempt_spec)
        except Exception as error:  # per-flow isolation: record, retry
            failure_class = policy.classify(error)
            last_error = f"{type(error).__name__}: {error}"
            failures.append(
                FlowFailure(
                    flow_id=spec.flow_id,
                    attempt=attempt,
                    seed=seed,
                    error_type=type(error).__name__,
                    error=str(error),
                    failure_class=failure_class,
                )
            )
            if not policy.retries(failure_class):
                return FlowOutcome(
                    index=index,
                    spec=spec,
                    result=None,
                    trace=None,
                    failures=failures,
                    quarantine=QuarantineRecord(
                        flow_id=spec.flow_id,
                        seed=spec.seed,
                        reason=(
                            f"deterministic failure on attempt {attempt}; "
                            f"not retried: {last_error}"
                        ),
                    ),
                    attempts=attempt + 1,
                )
        else:
            return FlowOutcome(
                index=index,
                spec=spec,
                result=result,
                trace=trace,
                failures=failures,
                attempts=attempt + 1,
            )
    return FlowOutcome(
        index=index,
        spec=spec,
        result=None,
        trace=None,
        failures=failures,
        quarantine=QuarantineRecord(
            flow_id=spec.flow_id,
            seed=spec.seed,
            reason=(
                f"all {policy.max_attempts} attempts failed; last: {last_error}"
            ),
        ),
        attempts=policy.max_attempts,
    )


class SerialBackend:
    """Placement: run the batch in the calling process, in order.

    The default placement.  A supervisor deadline or a chaos schedule
    still moves the batch into a one-worker pool, because preemption
    and injected crashes need a process boundary.
    """

    name = "serial"


class ProcessPoolBackend:
    """Placement: run the batch across ``workers`` spawned processes.

    A placement only says *where* a batch runs; the pool itself lives
    in :class:`~repro.exec.supervise.SupervisedBackend`, which
    :meth:`Executor.run` runs every batch through.  Specs are
    self-contained and picklable and every outcome is filed at its
    payload position, which is what makes parallel reports
    byte-identical to serial ones.

    ``workers`` defaults to ``os.cpu_count()``: spawning more workers
    than cores is pure oversubscription for this CPU-bound workload
    (it is how the original 4-worker default produced a 0.37× "speedup"
    on a 1-CPU host).  An explicit ``workers`` value is honoured as
    given — determinism tests deliberately run multi-worker pools on
    single-CPU machines.

    ``auto=True`` (``workers="auto"``) lets the supervisor decide per
    batch: it runs a short serial probe, projects the cost of finishing
    serially against paying the pool's spawn overhead, and pools the
    remainder only when that wins.  The probe's results are kept and
    order is preserved, so the bytes are identical either way; on a
    single-CPU host the batch always stays serial, so ``auto`` is
    never slower than serial.  The last decision (mode, probe timing,
    projections) is kept on :attr:`last_decision`.
    """

    name = "process-pool"

    def __init__(self, workers: Optional[int] = None, *, auto: bool = False) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.auto = auto
        #: the supervisor's last serial-vs-pool decision (``auto`` only)
        self.last_decision: Optional[dict] = None


@dataclass
class ExecutionResult:
    """Outcomes (in spec order) plus the campaign report they add up to."""

    outcomes: List[FlowOutcome]
    report: CampaignReport
    #: merged per-flow counters (None unless the run collected telemetry);
    #: merged in spec order from wall-clock-free counters, so the JSON
    #: artefact is byte-identical across serial and process-pool backends
    telemetry: Optional[CampaignTelemetry] = None

    @property
    def traces(self) -> List["FlowTrace"]:
        """Captured traces of successful flows, in spec order."""
        return [
            outcome.trace for outcome in self.outcomes if outcome.trace is not None
        ]

    @property
    def results(self) -> List[Optional[FlowResult]]:
        """Per-spec results, in spec order; None where quarantined."""
        return [outcome.result for outcome in self.outcomes]


class Executor:
    """Runs FlowSpec batches with retries, quarantine, and a report.

    Configuration is keyword-only: ``Executor(backend=...,
    retry_policy=..., telemetry=...)``.

    ``telemetry`` controls campaign counter collection: ``True``
    summarises every successful outcome, ``False`` disables it, and the
    default ``None`` collects exactly when the run context carries a
    ``telemetry`` aggregate (:func:`~repro.context.run_context`, how the
    CLI's ``--telemetry`` flag reaches every executor without parameter
    threading).  Collection happens in this process over the returned
    outcomes, so it changes nothing that runs and works the same on a
    result-store hit.
    """

    def __init__(
        self,
        *,
        backend: Optional[object] = None,
        retry_policy: Optional[RetryPolicy] = None,
        telemetry: Optional[bool] = None,
    ) -> None:
        self.backend = backend if backend is not None else SerialBackend()
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        self.telemetry = telemetry

    @classmethod
    def for_workers(
        cls,
        workers: Union[int, str] = 1,
        retry_policy: Optional[RetryPolicy] = None,
        telemetry: Optional[bool] = None,
    ) -> "Executor":
        """Serial for ``workers <= 1``, a spawn pool otherwise.

        The string ``"auto"`` selects ``ProcessPoolBackend(auto=True)``,
        which probes the batch and picks serial vs pool per call.
        """
        if workers == "auto":
            return cls(
                backend=ProcessPoolBackend(auto=True),
                retry_policy=retry_policy,
                telemetry=telemetry,
            )
        if isinstance(workers, str):
            raise ConfigurationError(
                f"workers must be an integer or 'auto', got {workers!r}"
            )
        if workers <= 1:
            return cls(
                backend=SerialBackend(), retry_policy=retry_policy, telemetry=telemetry
            )
        return cls(
            backend=ProcessPoolBackend(workers),
            retry_policy=retry_policy,
            telemetry=telemetry,
        )

    def run(
        self,
        specs: Iterable[FlowSpec],
        *,
        report: Optional[CampaignReport] = None,
    ) -> ExecutionResult:
        """Execute every spec; failures never abort the batch.

        Every batch goes through one fixed pipeline, whatever the
        placement (:attr:`backend`):

        1. with a result store in the run context
           (:func:`~repro.context.run_context`), partition the batch
           into store hits and misses, in this process;
        2. run the misses through
           :class:`~repro.exec.supervise.SupervisedBackend` — crash
           recovery, deadlines, chaos, signal drain — on the placement:
           serial or pool.  The run context's ``supervisor`` policy
           applies unless :attr:`backend` is itself a configured
           ``SupervisedBackend``;
        3. write the fresh results to the store;
        4. build the report.

        An all-hits batch stops after stage 1: nothing is supervised
        and no process is spawned.

        ``report``, when given, is extended in place (several calls can
        accumulate into one campaign report); otherwise a fresh one is
        returned.  Accounting is replayed from the outcomes in spec
        order, so the report's bytes do not depend on the placement or
        on completion timing.

        When telemetry collection is on (``Executor(telemetry=True)``
        or a ``telemetry`` aggregate in the run context), every
        successful outcome is summarised and merged — in spec order,
        from wall-clock-free counters — into
        :attr:`ExecutionResult.telemetry` (and into that aggregate);
        progress reporting, when enabled, writes to stderr only and
        never changes result bytes.
        """
        # Imported lazily: the supervisor and the store import this module.
        from repro.exec.supervise import SupervisedBackend
        from repro.store import backend as cache
        from repro.store.breaker import StoreCircuitBreaker

        context = current_run_context()
        collect = self.telemetry
        if collect is None:
            collect = context.telemetry is not None
        prepared = [self._finalise(spec, context) for spec in specs]
        payloads = [
            (index, spec, self.retry_policy)
            for index, spec in enumerate(prepared)
        ]
        supervised = self.backend
        if not isinstance(supervised, SupervisedBackend):
            supervised = SupervisedBackend(supervised, policy=context.supervisor)
        reporter: Optional[ProgressReporter] = None
        progress: Optional[Callable[[int], None]] = None
        if context.progress:
            reporter = ProgressReporter(total=len(payloads))
            progress = reporter.update
        try:
            if context.store is None:
                outcomes = supervised.map(_execute_payload, payloads, progress)
            else:
                breaker = StoreCircuitBreaker(context.store)
                outcomes, misses = cache.partition(
                    breaker, payloads, refresh=context.refresh, progress=progress
                )
                fresh: List[FlowOutcome] = []
                if misses:
                    hits = len(payloads) - len(misses)
                    fresh = supervised.map(
                        _execute_payload,
                        [miss.payload for miss in misses],
                        None if progress is None else (
                            lambda done: progress(hits + done)
                        ),
                    )
                outcomes = cache.persist(breaker, misses, fresh, outcomes)
        finally:
            if reporter is not None:
                reporter.finish()
        if report is None:
            report = CampaignReport()
        for outcome in outcomes:
            if outcome.skipped:
                # A signal drain stopped the campaign before this spec
                # ran: it is not attempted, the report is just partial.
                report.interrupted = True
                continue
            report.attempted += 1
            report.retried += outcome.attempts - 1
            for failure in outcome.failures:
                report.record_failure(failure)
            if outcome.quarantine is not None:
                report.record_quarantine(outcome.quarantine)
            else:
                report.succeeded += 1
            if outcome.cache_state == "hit":
                report.cache_hits += 1
            elif outcome.cache_state in ("miss", "corrupt", "error"):
                report.cache_misses += 1
                if outcome.cache_state == "corrupt":
                    report.cache_corrupt += 1
                elif outcome.cache_state == "error":
                    report.cache_errors += 1
        telemetry = (
            self._gather_telemetry(outcomes, context.telemetry) if collect else None
        )
        return ExecutionResult(outcomes=outcomes, report=report, telemetry=telemetry)

    @staticmethod
    def _gather_telemetry(
        outcomes: List[FlowOutcome], aggregate: Optional[CampaignTelemetry]
    ) -> Optional[CampaignTelemetry]:
        """Merge per-flow counters (spec order) into one campaign artefact,
        and that into ``aggregate`` when given; None when no outcome has
        a result."""
        campaign: Optional[CampaignTelemetry] = None
        for outcome in outcomes:
            if outcome.result is None:
                continue
            if campaign is None:
                campaign = CampaignTelemetry()
            campaign.merge_outcome(outcome)
        if campaign is not None and aggregate is not None:
            aggregate.merge(campaign)
        return campaign

    def _finalise(self, spec: FlowSpec, context: RunContext) -> FlowSpec:
        """Bake the run context into the spec before it leaves this process.

        ContextVars don't cross the spawn boundary, so the context's
        watchdog must travel inside the spec itself.
        """
        if spec.watchdog is None and context.watchdog is not None:
            spec = spec.with_(watchdog=context.watchdog)
        return spec
