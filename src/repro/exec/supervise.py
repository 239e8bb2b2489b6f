"""Fault-tolerant campaign supervision: the one attempt loop.

:class:`SupervisedBackend` runs every batch, inline or pooled, and is
the only code that decides what happens after a failed attempt.  A
worker runs exactly one attempt of one flow and reports back an outcome
or a failure; the supervisor files the failure, then retries the flow
or quarantines it.  Every kind of failure draws on one budget,
``RetryPolicy.max_attempts`` attempts in all, and follows the failure
taxonomy (:data:`~repro.robustness.campaign.FAILURE_CLASSES`): a
``deterministic`` failure quarantines at once, a ``transient`` one is
retried under a fresh seed, and a host-side one reruns the same seed.
Besides failures a flow *raises*, the loop absorbs the ones an
in-process ``except`` can never see:

* **worker death** — a spawn worker that segfaults, is OOM-killed, or
  calls ``os._exit`` breaks the whole ``ProcessPoolExecutor``
  (``BrokenProcessPool``) and, unsupervised, loses the entire batch.
  The supervisor catches the break, rebuilds the pool, and pins the
  blame.  A break with a single flow in flight names the killer
  outright.  With several in flight nobody knows whose worker died, so
  every one of them is rolled back to the front of the queue and
  submission is capped at one in-flight flow until each of these
  suspects has finished or failed: the next break then has exactly one
  flow in flight, and that flow **is** the killer.  The killer gets a
  :class:`~repro.robustness.campaign.FlowFailure` with the
  ``worker_crash`` failure class and is retried; innocent bystanders
  are re-run without any failure record.

* **hung flows** — the in-simulation :class:`~repro.robustness.watchdog.Watchdog`
  polls between events and cannot fire when the interpreter itself is
  stuck.  The supervisor enforces ``deadline_s`` on each attempt from
  the *parent*: an attempt that outlives its deadline gets its worker
  killed, a ``deadline``-class failure recorded, and a retry.

* **signals** — SIGINT/SIGTERM trigger a graceful drain instead of
  tearing the process down mid-write: submission stops, in-flight
  flows get ``grace_s`` to finish, completed results flow back to the
  caller (and through it into any ambient
  :class:`~repro.store.ResultStore`), and unfinished specs come back as
  ``skipped`` outcomes so the
  :class:`~repro.robustness.campaign.CampaignReport` is marked
  ``interrupted`` — a re-run against the same store executes exactly
  the remainder.  A second signal aborts immediately.

Determinism contract: an execution that is aborted through no fault of
its own (a bystander of another flow's crash, or a preempted-but-
innocent in-flight flow) does **not** consume its execution index, so
every scheduled chaos action — and therefore every failure record —
fires exactly once regardless of worker-pool timing.  As long as the
restart budget is not exhausted, two runs of the same supervised
campaign produce byte-identical reports.  Exhausting
``max_worker_restarts`` is an emergency stop (genuinely sick
infrastructure) and sacrifices that guarantee: whatever is still
unfinished at that moment, in flight or still queued, is quarantined.
"""

from __future__ import annotations

import contextlib
import os
import signal
import sys
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import repro.exec.executor as executor
from repro.exec.chaos import ChaosPlan
from repro.exec.executor import FlowOutcome, ProcessPoolBackend, SerialBackend
from repro.exec.spec import FlowSpec
from repro.robustness.campaign import (
    FlowFailure,
    QuarantineRecord,
    RetryPolicy,
    classify,
)
from repro.util.errors import ChaosError, ConfigurationError

__all__ = [
    "SupervisedBackend",
    "SupervisorPolicy",
    "clear_interrupt",
    "interrupt_signal",
]

#: exit status used by the ``crash`` chaos action (and visible in the
#: stderr note when a real worker dies)
_CRASH_EXIT_STATUS = 71  # EX_OSERR: "system error" in sysexits.h


@dataclass(frozen=True)
class SupervisorPolicy:
    """How hard the supervision layer fights for a campaign.

    ``deadline_s`` is the parent-enforced wall-clock limit on one
    attempt of a flow (``None`` disables preemption); a killed attempt
    is a ``deadline`` failure and draws on the flow's one attempt
    budget (:class:`~repro.robustness.campaign.RetryPolicy`) like any
    other.  Its clock starts when the parent submits the attempt to the
    pool, not when the attempt starts in the worker, so it also counts
    spawn-worker start-up and imports; a deadline shorter than that
    preempts healthy flows (ROADMAP item 6 moves the start into the
    worker).  ``max_worker_restarts`` caps how
    many times the worker pool may be rebuilt after crashes and
    preemptions before the supervisor gives up on the remainder;
    ``grace_s`` is how long a signal drain waits for in-flight flows
    before killing them; ``drain_signals=False`` leaves SIGINT/SIGTERM
    handling entirely to the caller.  ``chaos`` schedules injected
    faults (:class:`~repro.exec.chaos.ChaosPlan`, tests only): the
    supervisor hands each execution its action and forces the batch
    into a pool, where the actions fire.
    """

    deadline_s: Optional[float] = None
    max_worker_restarts: int = 8
    grace_s: float = 10.0
    drain_signals: bool = True
    chaos: Optional[ChaosPlan] = None

    def __post_init__(self) -> None:
        if self.deadline_s is not None and self.deadline_s <= 0.0:
            raise ConfigurationError(
                f"deadline_s must be positive, got {self.deadline_s}"
            )
        if self.max_worker_restarts < 0:
            raise ConfigurationError(
                f"max_worker_restarts must be >= 0, got {self.max_worker_restarts}"
            )
        if self.grace_s < 0.0:
            raise ConfigurationError(
                f"grace_s must be >= 0, got {self.grace_s}"
            )


#: signal number of the most recent drain, sticky until cleared — how
#: the CLI knows to stop launching experiments and exit 128+signum
_last_interrupt: Optional[int] = None


def interrupt_signal() -> Optional[int]:
    """Signal number of the most recent graceful drain (None if none)."""
    return _last_interrupt


def clear_interrupt() -> None:
    """Forget a recorded drain (test isolation; new CLI invocations)."""
    global _last_interrupt
    _last_interrupt = None


class _DrainGuard:
    """Scoped SIGINT/SIGTERM handlers that set a flag instead of dying.

    Installation is best-effort: outside the main thread (or with
    ``drain_signals=False``) the guard is inert and signals keep their
    previous behaviour.  A second signal while draining restores the
    previous handlers and raises ``KeyboardInterrupt`` — the operator
    asked twice, so stop politely refusing to die.
    """

    _SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.installed = False
        self.signum: Optional[int] = None
        self._previous: Dict[int, object] = {}

    @property
    def tripped(self) -> bool:
        return self.signum is not None

    def _handle(self, signum: int, frame: object) -> None:
        if self.tripped:
            self._restore()
            raise KeyboardInterrupt
        self.signum = signum
        global _last_interrupt
        _last_interrupt = signum
        name = signal.Signals(signum).name
        print(
            f"supervise: caught {name} — draining in-flight flows, "
            "flushing completed results (send again to abort)",
            file=sys.stderr,
            flush=True,
        )

    def __enter__(self) -> "_DrainGuard":
        if not self.enabled:
            return self
        if threading.current_thread() is not threading.main_thread():
            return self
        try:
            for signum in self._SIGNALS:
                self._previous[signum] = signal.signal(signum, self._handle)
        except ValueError:  # pragma: no cover - non-main interpreter state
            self._restore()
        else:
            self.installed = True
        return self

    def _restore(self) -> None:
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, TypeError):  # pragma: no cover - teardown
                pass
        self._previous.clear()
        self.installed = False

    def __exit__(self, *exc_info: object) -> None:
        self._restore()


def _failure(error: BaseException) -> Tuple[str, str, str]:
    """A failed attempt as plain data: ``(error_type, message, class)``."""
    return type(error).__name__, str(error), classify(error)


def _attempt(
    index: int, spec: FlowSpec, attempt_spec: FlowSpec, action: Optional[Tuple]
):
    """Worker side of one attempt: the chaos action, then one simulation.

    Module-level so the spawn pool can pickle it; inline runs call it
    too.  ``action`` is a plain tuple (picklable, no chaos-module import
    needed in workers): ``("crash",)`` kills the worker the way a
    segfault would, ``("hang", seconds)`` wedges it past any deadline,
    and ``("raise", message)`` fails the attempt with an injected
    :class:`~repro.util.errors.ChaosError`.  ``simulate_spec`` is looked
    up in :mod:`repro.exec.executor`, where tests patch it.

    Returns the :class:`FlowOutcome` (filed under the flow's own
    ``spec``), or :func:`_failure` of the exception the attempt raised:
    no exception has to survive pickling.
    """
    try:
        if action is not None:
            kind = action[0]
            if kind == "crash":
                os._exit(_CRASH_EXIT_STATUS)
            elif kind == "hang":
                time.sleep(float(action[1]))
            elif kind == "raise":
                raise ChaosError(str(action[1]))
        result, trace = executor.simulate_spec(attempt_spec)
    except Exception as error:  # per-flow isolation: the supervisor decides
        return _failure(error)
    return FlowOutcome(index=index, spec=spec, result=result, trace=trace)


@dataclass(eq=False)
class _Tracked:
    """Supervisor-side state of one flow across its attempts."""

    position: int
    index: int
    spec: FlowSpec
    #: what the next attempt runs: ``spec`` itself or a reseeded retry
    attempt_spec: FlowSpec
    #: pool submissions that counted (aborts roll back): the chaos index
    executions: int = 0
    started: float = 0.0
    failures: List[FlowFailure] = field(default_factory=list)


def _by_position(tracked: _Tracked) -> int:
    return tracked.position


@dataclass
class _Batch:
    """The state of one :meth:`SupervisedBackend.map` call."""

    results: List[Optional[FlowOutcome]]
    progress: Optional[Callable[[int], None]]
    drain: _DrainGuard
    retry: RetryPolicy
    #: flows waiting for a pool slot; failures and aborts requeue at the front
    pending: deque[_Tracked] = field(default_factory=deque)
    done: int = 0
    #: pool rebuilds so far, against ``max_worker_restarts``
    restarts: int = 0

    def complete(self, tracked: _Tracked, outcome: FlowOutcome) -> None:
        """File a finished flow's outcome at its position."""
        self.results[tracked.position] = outcome
        self.done += 1
        if self.progress is not None:
            self.progress(self.done)

    def requeue(self, flows: Sequence[_Tracked]) -> None:
        """Put ``flows`` at the front of the queue, in position order."""
        for tracked in sorted(flows, key=_by_position, reverse=True):
            self.pending.appendleft(tracked)


class SupervisedBackend:
    """Crash-recovering, deadline-enforcing, drain-aware batch runner.

    Runs a batch of ``(index, FlowSpec)`` payloads on a *placement*:
    the inner backend only says where (serial inline, or a worker pool
    and its width), while the supervisor owns the pool itself so it can
    kill and rebuild it.  :meth:`map` is the only code that runs a
    batch, :meth:`_record` the only code that decides what follows a
    failed attempt, and :meth:`_run_pooled` the only code that submits
    to a pool — first runs, retries, killer isolation and deadline
    preemption alike.

    A set ``deadline_s`` or a chaos schedule forces the whole batch
    into a pool even for a serial or ``auto`` placement (auto then
    skips its inline probe): preemption needs a process boundary to
    kill across, and chaos actions only fire in a worker.
    """

    #: seconds between drain-flag polls while waiting on futures
    POLL_S = 0.5
    #: payloads an ``auto`` placement runs serially to estimate per-item cost
    PROBE_ITEMS = 2
    #: flat cost of standing up a spawn pool (interpreter + imports)
    SPAWN_BASELINE_S = 0.8
    #: additional cost per spawned worker
    SPAWN_PER_WORKER_S = 0.4

    def __init__(
        self,
        inner: Optional[object] = None,
        *,
        policy: Optional[SupervisorPolicy] = None,
    ) -> None:
        self.inner = inner if inner is not None else SerialBackend()
        self.policy = policy if policy is not None else SupervisorPolicy()
        #: True when the last ``map`` was cut short by a signal drain
        self.last_interrupted = False

    # -- the backend protocol ------------------------------------------

    def map(
        self,
        items: Sequence[Tuple[int, FlowSpec]],
        progress: Optional[Callable[[int], None]] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> List[FlowOutcome]:
        """Run every ``(index, spec)`` payload to an outcome, in order.

        Each flow gets at most ``retry_policy.max_attempts`` attempts
        (default :class:`~repro.robustness.campaign.RetryPolicy`);
        ``progress`` is called with the running count of finished flows.
        """
        self.last_interrupted = False
        tracked = [
            _Tracked(position=position, index=index, spec=spec, attempt_spec=spec)
            for position, (index, spec) in enumerate(items)
        ]
        retry = retry_policy if retry_policy is not None else RetryPolicy()
        with _DrainGuard(self.policy.drain_signals) as drain:
            batch = _Batch([None] * len(tracked), progress, drain, retry)
            workers, use_pool = self._mode(tracked, batch)
            remaining = [t for t in tracked if batch.results[t.position] is None]
            if use_pool and remaining:
                self._run_pooled(remaining, workers, batch)
            else:
                self._run_inline(remaining, batch)
        # Whatever never finished (signal drain) comes back as a skipped
        # placeholder: present, ordered, but excluded from accounting.
        results = batch.results
        for flow in tracked:
            if results[flow.position] is None:
                results[flow.position] = FlowOutcome(
                    index=flow.index,
                    spec=flow.spec,
                    result=None,
                    trace=None,
                    attempts=0,
                    skipped=True,
                )
                self.last_interrupted = True
        return results

    # -- mode selection ------------------------------------------------

    def _mode(self, tracked, batch) -> Tuple[int, bool]:
        """(workers, use_pool) for this batch, honouring the placement.

        An ``auto`` pool placement still gets its serial probe when
        nothing forces a pool: the head runs inline here (its results
        are kept), and :meth:`_probe`'s projection decides whether the
        tail is worth a pool.
        """
        inner = self.inner
        chaos = self.policy.chaos
        forced = self.policy.deadline_s is not None or (
            chaos is not None and chaos.needs_pool
        )
        if not isinstance(inner, ProcessPoolBackend):
            # Serial (or unknown) placement: inline unless preemption
            # or chaos forces a process boundary.
            return 1, forced
        if not inner.auto:
            workers = min(inner.workers, max(len(tracked), 1))
            return workers, workers > 1 or forced
        if forced:
            # An inline probe would run its flows beyond the deadline's
            # and the chaos schedule's reach.
            return self._forced_pool(inner, len(tracked)), True
        return self._probe(inner, tracked, batch)

    def _probe(
        self, placement: ProcessPoolBackend, tracked, batch: _Batch
    ) -> Tuple[int, bool]:
        """Run an ``auto`` placement's serial probe and decide.

        The first :data:`PROBE_ITEMS` flows run inline, retries included
        (their outcomes are filed like any other); the measured per-item
        cost projects the serial finish time for the remainder, which is
        compared against a conservative estimate of the pool path
        (spawn + per-worker startup, amortised execution).  Returns
        ``(workers, use_pool)`` for the remainder; the decision lands on
        ``placement.last_decision``.
        """
        items = len(tracked)
        cpus = os.cpu_count() or 1
        remainder = items - self.PROBE_ITEMS
        effective = min(placement.workers, cpus, max(remainder, 1))
        if effective < 2 or remainder < 2:
            # Single CPU, a 1-worker cap, or a batch too small to
            # amortise anything: the pool can only lose.
            placement.last_decision = {
                "mode": "serial",
                "reason": "single CPU or batch too small to amortise a pool",
                "items": items,
                "cpu_count": cpus,
                "workers": effective,
            }
            return 1, False

        start = time.perf_counter()
        self._run_inline(tracked[: self.PROBE_ITEMS], batch)
        probe_s = time.perf_counter() - start
        per_item_s = probe_s / self.PROBE_ITEMS
        serial_estimate_s = per_item_s * remainder
        pool_overhead_s = self.SPAWN_BASELINE_S + self.SPAWN_PER_WORKER_S * effective
        pool_estimate_s = pool_overhead_s + serial_estimate_s / effective
        use_pool = pool_estimate_s < serial_estimate_s
        placement.last_decision = {
            "mode": "pool" if use_pool else "serial",
            "reason": (
                f"probe {per_item_s:.4f}s/item: projected serial "
                f"{serial_estimate_s:.3f}s vs pool {pool_estimate_s:.3f}s "
                f"({effective} workers)"
            ),
            "items": items,
            "cpu_count": cpus,
            "workers": effective,
            "probe_s": round(probe_s, 6),
            "projected_serial_s": round(serial_estimate_s, 6),
            "projected_pool_s": round(pool_estimate_s, 6),
        }
        return effective, use_pool

    @staticmethod
    def _forced_pool(placement: ProcessPoolBackend, items: int) -> int:
        """Worker count for an ``auto`` batch that must run pooled.

        A deadline or a chaos schedule needs every flow behind a
        process boundary, so nothing runs inline: the whole batch goes
        to ``min(workers, cpu_count, items)`` workers, probe skipped.
        """
        cpus = os.cpu_count() or 1
        workers = max(min(placement.workers, cpus, items), 1)
        placement.last_decision = {
            "mode": "pool",
            "reason": "a deadline or chaos schedule forces a pool",
            "items": items,
            "cpu_count": cpus,
            "workers": workers,
        }
        return workers

    # -- inline execution ----------------------------------------------

    def _run_inline(self, flows: Sequence[_Tracked], batch: _Batch) -> None:
        """Run ``flows`` in this process until each is finished.

        A failed attempt is requeued at the front, so a flow's retries
        run before the next flow starts.  A drain leaves the rest
        unrun: :meth:`map` marks them skipped.
        """
        pending = batch.pending
        pending.extend(flows)
        while pending and not batch.drain.tripped:
            tracked = pending.popleft()
            self._file(
                tracked,
                _attempt(tracked.index, tracked.spec, tracked.attempt_spec, None),
                batch,
            )
        pending.clear()

    # -- pooled execution ----------------------------------------------

    def _run_pooled(self, remaining, workers, batch: _Batch) -> None:
        """The pool loop: submit, wait, file, and recover from kills.

        ``suspects`` holds the positions of flows rolled back by a
        break that had several flows in flight.  While any is left,
        submission is capped at one in-flight flow, so the next break
        blames exactly the flow that caused it.  Flows queued behind
        the suspects are unaffected: they run after isolation, at full
        width again.
        """
        deadline = self.policy.deadline_s
        chaos = self.policy.chaos
        pending = batch.pending
        pending.extend(remaining)
        pool: Optional[ProcessPoolExecutor] = None
        # insertion order is submission order
        inflight: Dict[object, _Tracked] = {}
        suspects: Set[int] = set()
        try:
            while pending or inflight:
                if batch.drain.tripped:
                    self._drain_inflight(pool, inflight, batch)
                    pool = None
                    return  # pending never ran: map() marks them skipped
                if pool is None:
                    pool = self._fresh_pool(min(workers, max(len(pending), 1)))
                cap = 1 if suspects else workers
                while pending and len(inflight) < cap:
                    tracked = pending.popleft()
                    action = (
                        None
                        if chaos is None
                        else chaos.action_for(tracked.spec.flow_id, tracked.executions)
                    )
                    tracked.executions += 1
                    tracked.started = time.monotonic()
                    try:
                        future = pool.submit(
                            _attempt,
                            tracked.index,
                            tracked.spec,
                            tracked.attempt_spec,
                            action,
                        )
                    except BrokenProcessPool:
                        # The pool broke between waits (a worker died
                        # while idle, or its break was detected late).
                        # This attempt never ran: roll it back and let
                        # the break of the in-flight futures, if any,
                        # sort out the rest.
                        tracked.executions -= 1
                        pending.appendleft(tracked)
                        if not inflight:
                            # Nobody is a suspect: the pool just needs
                            # rebuilding (the budget applies).
                            self._restart(pool, [], [], "crash", batch)
                            pool = None
                        break
                    inflight[future] = tracked
                if not inflight:
                    continue
                self._watch_workers(pool)
                done, _ = wait(
                    list(inflight),
                    timeout=self._wait_timeout(inflight),
                    return_when=FIRST_COMPLETED,
                )
                broken: List[_Tracked] = []
                for future in [f for f in inflight if f in done]:
                    tracked = inflight.pop(future)
                    try:
                        value = future.result()
                    except BrokenProcessPool:
                        broken.append(tracked)
                        continue
                    except Exception as error:  # the value could not cross
                        value = _failure(error)
                    self._file(tracked, value, batch)
                    suspects.discard(tracked.position)
                if broken:
                    kind = "crash"
                    aborted = sorted(
                        broken + list(inflight.values()), key=_by_position
                    )
                    # One flow in flight is the killer; with several,
                    # all of them become suspects.
                    blamed = aborted if len(aborted) == 1 else []
                else:
                    kind = "deadline"
                    now = time.monotonic()
                    aborted = list(inflight.values())
                    blamed = [
                        t for t in aborted
                        if deadline is not None and now - t.started > deadline
                    ]
                    if not blamed:
                        continue
                inflight.clear()
                bystanders = [t for t in aborted if t not in blamed]
                restarted = self._restart(pool, blamed, bystanders, kind, batch)
                pool = None
                suspects.difference_update(t.position for t in blamed)
                if restarted and kind == "crash" and bystanders:
                    suspects.update(t.position for t in bystanders)
                    print(
                        f"supervise: worker died; isolating the killer among "
                        f"{len(bystanders)} in-flight flows",
                        file=sys.stderr,
                        flush=True,
                    )
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)

    def _wait_timeout(self, inflight: Dict[object, _Tracked]) -> float:
        """How long one future-wait may block.

        Short enough to notice drain flags and deadlines promptly; a
        pure wall-clock concern, invisible in results.
        """
        timeout = self.POLL_S
        if self.policy.deadline_s is not None:
            now = time.monotonic()
            nearest = min(
                tracked.started + self.policy.deadline_s - now
                for tracked in inflight.values()
            )
            timeout = min(timeout, max(nearest, 0.0))
        return timeout

    # -- failure handling ----------------------------------------------

    def _restart(self, pool, blamed, bystanders, kind, batch: _Batch) -> bool:
        """Kill ``pool`` after a break or a deadline; count the restart.

        Each ``blamed`` flow gets a ``kind`` (``"crash"`` or
        ``"deadline"``) failure record and is retried.  Bystanders are
        rolled back — their aborted execution never counted — and
        requeued at the front in position order.  Returns False when
        this restart spent the budget: every unfinished flow, aborted
        or still queued, is then quarantined.
        """
        self._kill_pool(pool)
        batch.restarts += 1
        if batch.restarts > self.policy.max_worker_restarts:
            self._give_up_all(list(blamed) + list(bystanders), batch)
            return False
        for tracked in bystanders:
            tracked.executions -= 1  # aborted, not failed
        batch.requeue(bystanders)
        deadline = self.policy.deadline_s
        for tracked in sorted(blamed, key=_by_position):
            flow, execution = tracked.spec.flow_id, tracked.executions - 1
            if kind == "deadline":
                self._record(
                    tracked,
                    "DeadlineExceededError",
                    f"flow exceeded its {deadline:g}s wall-clock deadline; "
                    "worker killed",
                    "deadline",
                    f"{flow!r} exceeded its {deadline:g}s deadline "
                    f"(execution {execution}); worker killed",
                    batch,
                )
            else:
                self._record(
                    tracked,
                    "WorkerCrashError",
                    "worker process died while running this flow "
                    f"(exit status {_CRASH_EXIT_STATUS} or signal); "
                    "pool rebuilt",
                    "worker_crash",
                    f"worker crashed on {flow!r} (execution {execution}); "
                    "pool rebuilt",
                    batch,
                )
        return True

    def _file(self, tracked: _Tracked, value, batch: _Batch) -> None:
        """File what one attempt returned: an outcome, or a failure."""
        if isinstance(value, FlowOutcome):
            value.failures = tracked.failures
            value.attempts = len(tracked.failures) + 1
            batch.complete(tracked, value)
        else:
            self._record(tracked, *value, None, batch)

    def _record(
        self, tracked, error_type, error, failure_class, note, batch: _Batch
    ) -> None:
        """File one failed attempt, then retry or quarantine the flow.

        The failure's ``attempt`` is the number of the flow's earlier
        failed attempts and its ``seed`` is the seed this attempt ran.
        ``note`` is the stderr line (without the ``supervise:`` prefix)
        for failures the worker could not report itself.  A
        ``deterministic`` failure, or one that spends the flow's
        ``max_attempts``, quarantines the flow; otherwise it is
        requeued at the front — under a fresh seed after a
        ``transient`` failure, under the same seed after a host-side
        one (``infrastructure``, ``worker_crash``, ``deadline``).
        """
        spec, retry = tracked.spec, batch.retry
        attempt = len(tracked.failures)
        tracked.failures.append(
            FlowFailure(
                flow_id=spec.flow_id,
                attempt=attempt,
                seed=tracked.attempt_spec.seed,
                error_type=error_type,
                error=error,
                failure_class=failure_class,
            )
        )
        if note is not None:
            print(f"supervise: {note}", file=sys.stderr, flush=True)
        last = f"{error_type}: {error}"
        if failure_class == "deterministic":
            self._give_up(
                tracked,
                f"deterministic failure on attempt {attempt}; not retried: {last}",
                batch,
            )
        elif attempt + 1 >= retry.max_attempts:
            self._give_up(
                tracked,
                f"all {retry.max_attempts} attempts failed; last: {last}",
                batch,
            )
        else:
            if failure_class == "transient":
                tracked.attempt_spec = spec.for_attempt(
                    retry.seed_for_attempt(spec.seed, attempt + 1)
                )
            batch.pending.appendleft(tracked)

    def _give_up(self, tracked, reason, batch: _Batch) -> None:
        """Quarantine one flow: the one place a quarantine is built."""
        spec = tracked.spec
        outcome = FlowOutcome(
            index=tracked.index,
            spec=spec,
            result=None,
            trace=None,
            failures=tracked.failures,
            quarantine=QuarantineRecord(
                flow_id=spec.flow_id, seed=spec.seed, reason=reason
            ),
            attempts=max(len(tracked.failures), 1),
        )
        batch.complete(tracked, outcome)

    def _give_up_all(self, aborted, batch: _Batch) -> None:
        """The restart budget is spent: quarantine everything unfinished."""
        reason = "worker-restart budget exhausted"
        unfinished = list(aborted) + list(batch.pending)
        batch.pending.clear()
        print(
            f"supervise: {reason} "
            f"(max_worker_restarts={self.policy.max_worker_restarts}); "
            f"quarantining the {len(unfinished)} unfinished flows",
            file=sys.stderr,
            flush=True,
        )
        for tracked in unfinished:
            self._give_up(tracked, reason, batch)

    # -- pool plumbing -------------------------------------------------

    @staticmethod
    def _fresh_pool(workers: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=max(workers, 1), mp_context=get_context("spawn")
        )

    @staticmethod
    def _watch_workers(pool: ProcessPoolExecutor) -> None:
        """Make the pool notice the death of every worker it has spawned.

        ``submit`` wakes the pool's manager thread *before* spawning a
        new worker, so the thread can go back to waiting without that
        worker's sentinel, and a crash there would go unseen until the
        next result arrives.  One more wakeup after the submissions
        closes the gap (a private handle, like the one ``_kill_pool``
        uses).
        """
        wakeup = getattr(pool, "_executor_manager_thread_wakeup", None)
        if wakeup is not None:
            with contextlib.suppress(OSError):  # closed: the pool broke
                wakeup.wakeup()

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Terminate a pool's workers outright (hung or broken pool).

        ``shutdown`` alone waits politely forever on a wedged worker;
        the process handles are reached through the executor's private
        table because the public API deliberately has no kill switch.
        """
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:  # pragma: no cover - already-dead races
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def _drain_inflight(self, pool, inflight, batch: _Batch) -> None:
        """Signal drain: give in-flight flows ``grace_s``, then kill."""
        done, not_done = wait(list(inflight), timeout=self.policy.grace_s)
        for future in done:
            tracked = inflight.pop(future)
            try:
                value = future.result()
            except BaseException:
                tracked.executions -= 1  # lost to the drain, not failed
            else:
                self._file(tracked, value, batch)
        for future in not_done:
            tracked = inflight.pop(future)
            tracked.executions -= 1  # preempted by the drain, not failed
        if pool is not None:
            if not_done:
                self._kill_pool(pool)
            else:
                pool.shutdown(wait=False, cancel_futures=True)
