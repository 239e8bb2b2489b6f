"""Executing FlowSpec batches: serial or multi-process, byte-identical.

This is the single funnel every campaign and sweep goes through.  The
:class:`Executor` takes a list of :class:`~repro.exec.spec.FlowSpec`,
runs each with the resilient attempt loop (retry with deterministically
reseeded attempts, quarantine on exhaustion), and assembles a
:class:`~repro.robustness.campaign.CampaignReport` **in spec order** —
so a 4-worker run produces the same traces and the same report bytes as
a serial run of the same batch.

Backends name an execution mode; every batch runs through
:class:`~repro.exec.supervise.SupervisedBackend`, which owns the one
pool loop (crash recovery, deadlines, signal drain):

* :class:`SerialBackend` — in the calling process, in order; the
  default.
* :class:`ProcessPoolBackend` — a spawn-context process pool.  Specs
  are self-contained and picklable, and every random stream is derived
  from the spec's own seed, so moving a flow to another process cannot
  change its bytes.
* :class:`AutoBackend` — runs a short serial probe, projects the cost
  of finishing serially vs paying the pool's spawn overhead, and picks
  whichever is faster.  Because the probe's results are kept and order
  is preserved, the outcome bytes are identical to a serial run either
  way; only wall-clock changes.  On a single-CPU host it always stays
  serial, so ``auto`` is never slower than serial.

Ambient state (the watchdog installed by ``watchdog_scope``) lives in a
ContextVar, which does **not** propagate to spawned workers; the
executor therefore bakes the ambient watchdog into each spec at submit
time, before anything crosses a process boundary.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.exec.spec import FlowSpec
from repro.robustness.campaign import (
    CampaignReport,
    FlowFailure,
    QuarantineRecord,
    RetryPolicy,
)
from repro.robustness.watchdog import current_watchdog
from repro.simulator.connection import FlowResult, run_flow
from repro.telemetry.campaign import CampaignTelemetry
from repro.telemetry.progress import ProgressReporter
from repro.telemetry.scope import current_telemetry_config
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    # repro.traces imports repro.exec (the generator runs on the
    # executor); capture is therefore imported lazily at run time.
    from repro.traces.events import FlowTrace

__all__ = [
    "AutoBackend",
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
    """Run payloads in the calling process, in order."""

    name = "serial"

    def map(
        self,
        fn: Callable,
        items: Sequence,
        progress: Optional[Callable[[int], None]] = None,
    ) -> List:
        if progress is None:
            return [fn(item) for item in items]
        results: List = []
        for done, item in enumerate(items, start=1):
            results.append(fn(item))
            progress(done)
        return results


def _supervised_map(backend, fn: Callable, items: Sequence, progress) -> List:
    """Run ``backend``'s batch through the supervision layer, which owns
    the only pool loop (imported lazily: supervise imports this module)."""
    from repro.exec.supervise import SupervisedBackend, current_supervisor_policy

    return SupervisedBackend(backend, policy=current_supervisor_policy()).map(
        fn, items, progress
    )


class ProcessPoolBackend:
    """Run payloads across ``workers`` spawned processes.

    The pool itself lives in
    :class:`~repro.exec.supervise.SupervisedBackend`: this backend only
    names the worker count, and :meth:`map` runs the batch through the
    supervisor, so a bare call gets the same crash recovery, deadlines
    and signal drain as an :class:`Executor` run.  Specs are
    self-contained and picklable and every outcome is filed at its
    payload position, which is what makes parallel reports
    byte-identical to serial ones.

    ``workers`` defaults to ``os.cpu_count()``: spawning more workers
    than cores is pure oversubscription for this CPU-bound workload
    (it is how the original 4-worker default produced a 0.37× "speedup"
    on a 1-CPU host).  An explicit ``workers`` value is honoured as
    given — determinism tests deliberately run multi-worker pools on
    single-CPU machines.
    """

    name = "process-pool"

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    def map(
        self,
        fn: Callable,
        items: Sequence,
        progress: Optional[Callable[[int], None]] = None,
    ) -> List:
        return _supervised_map(self, fn, items, progress)


class AutoBackend:
    """Measure a short serial probe, then pick serial vs pool.

    The first :data:`PROBE_ITEMS` payloads run serially and their
    results are kept; the measured per-item cost projects the serial
    finish time for the remainder, which is compared against a
    conservative estimate of the pool path (spawn + per-worker startup,
    amortised execution).  Only when the pool projects a real win does
    the remainder fan out.  A deadline or chaos schedule skips the
    probe and pools the whole batch (:meth:`forced_pool`).

    The decision changes wall-clock only, never bytes: payload order is
    preserved and every payload is a pure function of its spec, so the
    assembled outcome list is identical in both modes.  The last
    decision (mode, probe timing, projections) is kept on
    :attr:`last_decision` for benchmarks and reports.
    """

    name = "auto"

    #: payloads run serially to estimate per-item cost
    PROBE_ITEMS = 2
    #: flat cost of standing up a spawn pool (interpreter + imports)
    SPAWN_BASELINE_S = 0.8
    #: additional cost per spawned worker
    SPAWN_PER_WORKER_S = 0.4

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.last_decision: Optional[dict] = None

    def probe(
        self, items: Sequence, runner: Callable[[object, int], object]
    ) -> Tuple[bool, int]:
        """Run the serial probe and decide; ``(use_pool, workers)``.

        ``runner(item, position)`` executes each probe item and keeps
        its result (the supervisor files it like any other outcome);
        the remainder of ``items`` is the caller's to run — pooled over
        ``workers`` when ``use_pool``.  The decision lands on
        :attr:`last_decision`.
        """
        cpus = os.cpu_count() or 1
        remainder = len(items) - self.PROBE_ITEMS
        effective = min(self.workers, cpus, max(remainder, 1))
        if effective < 2 or remainder < 2:
            # Single CPU, a 1-worker cap, or a batch too small to
            # amortise anything: the pool can only lose.
            self.last_decision = {
                "mode": "serial",
                "reason": "single CPU or batch too small to amortise a pool",
                "items": len(items),
                "cpu_count": cpus,
                "workers": effective,
            }
            return False, 1

        start = time.perf_counter()
        for position, item in enumerate(items[: self.PROBE_ITEMS]):
            runner(item, position)
        probe_s = time.perf_counter() - start
        per_item_s = probe_s / self.PROBE_ITEMS
        serial_estimate_s = per_item_s * remainder
        pool_overhead_s = self.SPAWN_BASELINE_S + self.SPAWN_PER_WORKER_S * effective
        pool_estimate_s = pool_overhead_s + serial_estimate_s / effective
        use_pool = pool_estimate_s < serial_estimate_s
        self.last_decision = {
            "mode": "pool" if use_pool else "serial",
            "reason": (
                f"probe {per_item_s:.4f}s/item: projected serial "
                f"{serial_estimate_s:.3f}s vs pool {pool_estimate_s:.3f}s "
                f"({effective} workers)"
            ),
            "items": len(items),
            "cpu_count": cpus,
            "workers": effective,
            "probe_s": round(probe_s, 6),
            "projected_serial_s": round(serial_estimate_s, 6),
            "projected_pool_s": round(pool_estimate_s, 6),
        }
        return use_pool, effective

    def forced_pool(self, items: int) -> int:
        """Worker count for a batch that must run pooled, probe skipped.

        A supervisor deadline or a chaos schedule needs every flow
        behind a process boundary, so nothing runs inline: the whole
        batch goes to ``min(workers, cpu_count, items)`` workers.
        """
        cpus = os.cpu_count() or 1
        workers = max(min(self.workers, cpus, items), 1)
        self.last_decision = {
            "mode": "pool",
            "reason": "a deadline or chaos schedule forces a pool",
            "items": items,
            "cpu_count": cpus,
            "workers": workers,
        }
        return workers

    def map(
        self,
        fn: Callable,
        items: Sequence,
        progress: Optional[Callable[[int], None]] = None,
    ) -> List:
        return _supervised_map(self, fn, items, progress)


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
    default ``None`` defers to the ambient
    :func:`~repro.telemetry.telemetry_scope` configuration (how the
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

        The string ``"auto"`` selects :class:`AutoBackend`, which
        probes the batch and picks serial vs pool per call;
        ``"fabric"`` runs the batch on the distributed campaign fabric
        (:class:`~repro.fabric.FabricBackend` — a lease coordinator
        plus worker processes, configured by the ambient
        :func:`~repro.fabric.fabric_scope`).
        """
        if workers == "auto":
            return cls(
                backend=AutoBackend(), retry_policy=retry_policy, telemetry=telemetry
            )
        if workers == "fabric":
            # Imported lazily: repro.fabric sits above the executor in
            # the layer diagram (it imports this module).
            from repro.fabric.backend import FabricBackend

            return cls(
                backend=FabricBackend(),
                retry_policy=retry_policy,
                telemetry=telemetry,
            )
        if isinstance(workers, str):
            raise ConfigurationError(
                f"workers must be an integer, 'auto', or 'fabric', got {workers!r}"
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

        ``report``, when given, is extended in place (several calls can
        accumulate into one campaign report); otherwise a fresh one is
        returned.  Accounting is replayed from the outcomes in spec
        order, so the report's bytes do not depend on the backend or on
        completion timing.

        When telemetry collection is on (``Executor(telemetry=True)``
        or an ambient :func:`~repro.telemetry.telemetry_scope`), every
        successful outcome is summarised and merged — in spec order,
        from wall-clock-free counters — into
        :attr:`ExecutionResult.telemetry`; progress
        reporting, when enabled, writes to stderr only and never
        changes result bytes.
        """
        ambient = current_telemetry_config()
        collect = self.telemetry
        if collect is None:
            collect = ambient is not None and ambient.collect
        prepared = [self._finalise(spec) for spec in specs]
        payloads = [
            (index, spec, self.retry_policy)
            for index, spec in enumerate(prepared)
        ]
        backend = self._effective_backend()
        reporter: Optional[ProgressReporter] = None
        if ambient is not None and ambient.progress:
            reporter = ProgressReporter(
                total=len(payloads), stream=ambient.progress_stream
            )
        if reporter is None:
            # No kwarg when off: custom backends only need the
            # two-argument ``map(fn, items)`` signature.
            outcomes: List[FlowOutcome] = backend.map(
                _execute_payload, payloads
            )
        else:
            try:
                outcomes = backend.map(
                    _execute_payload, payloads, reporter.update
                )
            finally:
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
        telemetry = self._gather_telemetry(outcomes, ambient) if collect else None
        return ExecutionResult(outcomes=outcomes, report=report, telemetry=telemetry)

    def _effective_backend(self):
        """The configured backend, supervised and cache-wrapped.

        Every run gets the supervision layer
        (:class:`~repro.exec.supervise.SupervisedBackend` — crash
        recovery, deadlines, signal drain) around the configured
        backend, under the ambient
        :func:`~repro.exec.supervise.supervise_scope` policy when one
        is installed.  When a store is also ambient, the cache wrap
        goes *outside* supervision — the hit/miss partition stays in
        the parent and only genuine misses are supervised — and the
        wrap happens per ``run`` call so one Executor honours whatever
        :func:`~repro.store.scope.store_scope` is active at each call
        site.  An explicitly configured
        :class:`~repro.store.backend.CachedBackend` is left alone
        entirely (the caller owns its composition).
        """
        from repro.exec.supervise import (
            SupervisedBackend,
            current_supervisor_policy,
        )
        from repro.store.backend import CachedBackend
        from repro.store.scope import current_store_config

        if isinstance(self.backend, CachedBackend):
            return self.backend
        if isinstance(self.backend, SupervisedBackend):
            supervised = self.backend
        else:
            supervised = SupervisedBackend(
                self.backend, policy=current_supervisor_policy()
            )
        config = current_store_config()
        if config is None:
            return supervised
        return CachedBackend(
            config.store, supervised, refresh=config.refresh
        )

    @staticmethod
    def _gather_telemetry(
        outcomes: List[FlowOutcome], ambient
    ) -> Optional[CampaignTelemetry]:
        """Merge per-flow counters (spec order) into one campaign artefact;
        None when no outcome has a result."""
        campaign: Optional[CampaignTelemetry] = None
        for outcome in outcomes:
            if outcome.result is None:
                continue
            if campaign is None:
                campaign = CampaignTelemetry()
            campaign.merge_outcome(outcome)
        if campaign is not None and ambient is not None and ambient.aggregate is not None:
            ambient.aggregate.merge(campaign)
        return campaign

    def _finalise(self, spec: FlowSpec) -> FlowSpec:
        """Bake ambient context into the spec before it leaves this process.

        ContextVars don't cross the spawn boundary, so the ambient
        watchdog must travel inside the spec itself.
        """
        if spec.watchdog is None:
            ambient = current_watchdog()
            if ambient is not None:
                spec = spec.with_(watchdog=ambient)
        return spec
