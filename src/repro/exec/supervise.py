"""Fault-tolerant campaign supervision around executor backends.

The retry/quarantine loop of :mod:`repro.exec.executor` protects a
campaign from flows that *raise*; this module protects it from failure
modes that an in-process ``except`` can never see:

* **worker death** — a spawn worker that segfaults, is OOM-killed, or
  calls ``os._exit`` breaks the whole ``ProcessPoolExecutor``
  (``BrokenProcessPool``) and, unsupervised, loses the entire batch.
  The :class:`SupervisedBackend` catches the break, rebuilds the pool,
  and isolates the killer spec by re-running the suspects through a
  one-worker pool (an *ordered isolation probe*: with a single worker,
  futures start strictly in submission order, so the first broken
  future **is** the killer — a sharper version of bisecting the failed
  batch).  The killer gets a :class:`~repro.robustness.campaign.FlowFailure`
  with the ``worker_crash`` failure class and is retried; innocent
  bystanders are re-run without any failure record.

* **hung flows** — the in-simulation :class:`~repro.robustness.watchdog.Watchdog`
  polls between events and cannot fire when the interpreter itself is
  stuck.  The supervisor enforces ``deadline_s`` from the *parent*: a
  future that outlives its deadline gets its worker killed, a
  ``deadline``-class failure recorded, and a retry.

* **signals** — SIGINT/SIGTERM trigger a graceful drain instead of
  tearing the process down mid-write: submission stops, in-flight
  flows get ``grace_s`` to finish, completed results flow back to the
  caller (and through it into any ambient
  :class:`~repro.store.ResultStore`), and unrun specs come back as
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
unfinished at that moment is quarantined.
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
from contextvars import ContextVar
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.exec.executor import (
    AutoBackend,
    FlowOutcome,
    ProcessPoolBackend,
    SerialBackend,
)
from repro.robustness.campaign import FlowFailure, QuarantineRecord, RetryPolicy
from repro.util.errors import ConfigurationError

__all__ = [
    "SupervisedBackend",
    "SupervisorPolicy",
    "clear_interrupt",
    "current_supervisor_policy",
    "interrupt_signal",
    "supervise_scope",
]

#: exit status used by the ``crash`` chaos action (and visible in the
#: stderr note when a real worker dies)
_CRASH_EXIT_STATUS = 71  # EX_OSERR: "system error" in sysexits.h


@dataclass(frozen=True)
class SupervisorPolicy:
    """How hard the supervision layer fights for a campaign.

    ``deadline_s`` is the parent-enforced per-flow wall-clock limit
    (``None`` disables preemption); ``max_worker_restarts`` caps how
    many times the worker pool may be rebuilt after crashes and
    preemptions before the supervisor gives up on the remainder;
    ``grace_s`` is how long a signal drain waits for in-flight flows
    before killing them; ``drain_signals=False`` leaves SIGINT/SIGTERM
    handling entirely to the caller.
    """

    deadline_s: Optional[float] = None
    max_worker_restarts: int = 8
    grace_s: float = 10.0
    drain_signals: bool = True

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


_ambient_policy: ContextVar[Optional[SupervisorPolicy]] = ContextVar(
    "repro_ambient_supervisor", default=None
)


def current_supervisor_policy() -> Optional[SupervisorPolicy]:
    """The ambient policy installed by :func:`supervise_scope`, if any."""
    return _ambient_policy.get()


@contextlib.contextmanager
def supervise_scope(
    policy: Optional[SupervisorPolicy],
) -> Iterator[Optional[SupervisorPolicy]]:
    """Install ``policy`` ambiently (the CLI's ``--deadline-s`` plumbing).

    Mirrors :func:`~repro.robustness.watchdog.watchdog_scope`: every
    :class:`~repro.exec.executor.Executor` run inside the block
    supervises its backend under this policy.  ``None`` is a no-op
    scope (executors then use the default :class:`SupervisorPolicy`).
    """
    token = _ambient_policy.set(policy)
    try:
        yield policy
    finally:
        _ambient_policy.reset(token)


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


def _supervised_call(fn: Callable, payload: object, action: Optional[Tuple]):
    """Worker-side trampoline: run one payload, chaos action first.

    Module-level so the spawn pool can pickle it; fabric workers call
    it for each leased payload too.  ``action`` is a
    plain tuple (picklable, no chaos-module import needed in workers):
    ``("crash",)`` kills the worker the way a segfault would,
    ``("hang", seconds)`` wedges it past any deadline, and
    ``("raise", message)`` throws an injected exception.
    """
    if action is not None:
        kind = action[0]
        if kind == "crash":
            os._exit(_CRASH_EXIT_STATUS)
        elif kind == "hang":
            time.sleep(float(action[1]))
        elif kind == "raise":
            from repro.util.errors import ChaosError

            raise ChaosError(str(action[1]))
    return fn(payload)


@dataclass
class _Tracked:
    """Supervisor-side state of one payload across executions."""

    position: int
    payload: Tuple
    executions: int = 0
    started: float = 0.0
    failures: List[FlowFailure] = field(default_factory=list)

    @property
    def spec(self):
        return self.payload[1]

    @property
    def retry_policy(self) -> RetryPolicy:
        return self.payload[2]


class SupervisedBackend:
    """Crash-recovering, deadline-enforcing, drain-aware backend wrapper.

    Wraps any executor backend; the inner backend decides the execution
    *mode* (serial inline vs worker pool, and the worker count), while
    the supervisor owns the pool itself so it can kill and rebuild it.
    This is the only code that runs a batch: the executor's pool and
    auto backends delegate their own ``map`` here.  Failure handling
    needs the executor payload contract — ``(index, FlowSpec,
    RetryPolicy)`` tuples mapped over a picklable function — which is
    exactly what :class:`~repro.exec.executor.Executor` submits; a
    batch that never fails may map any items (picklable when pooled).

    The supervisor forces a (single-worker) pool when ``deadline_s`` is
    set even for serial inner backends: preemption needs a process
    boundary to kill across.
    """

    #: seconds between drain-flag polls while waiting on futures
    POLL_S = 0.5

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

    @property
    def name(self) -> str:
        return f"supervised[{getattr(self.inner, 'name', 'backend')}]"

    # -- chaos hooks (overridden by ChaosBackend) ----------------------

    def _action_for(
        self, payload: Tuple, execution: int
    ) -> Optional[Tuple]:
        """Chaos action for this payload's Nth execution (None = run)."""
        return None

    def _requires_pool(self, items: Sequence) -> bool:
        """Whether this map must run in a pool regardless of the inner
        backend (crash/hang actions would take the parent down)."""
        return False

    def prepare_batch(self, items: Sequence) -> None:
        """Pre-batch hook (chaos store corruption happens here).

        Must be idempotent: when a :class:`~repro.store.backend.CachedBackend`
        wraps this backend it invokes the hook *before* its store reads
        (so injected corruption is actually seen), and ``map`` calls it
        again for the miss batch.
        """

    # -- the backend protocol ------------------------------------------

    def map(
        self,
        fn: Callable,
        items: Sequence,
        progress: Optional[Callable[[int], None]] = None,
    ) -> List:
        items = list(items)
        self.last_interrupted = False
        if getattr(self.inner, "self_supervising", False):
            # A fabric backend owns its whole fault story — worker
            # respawn, lease re-grants, per-shard retry — across a
            # process boundary this layer cannot see.  Wrapping it in
            # drain guards and pools here would only fight that
            # machinery, so the batch is delegated, with the chaos
            # schedule: the fabric applies each payload's action in
            # whichever worker runs it.
            return self.inner.map(fn, items, progress, action_for=self._action_for)
        results: List[Optional[FlowOutcome]] = [None] * len(items)
        done_box = [0]
        with _DrainGuard(self.policy.drain_signals) as drain:
            self.prepare_batch(items)
            tracked = [
                _Tracked(position=position, payload=payload)
                for position, payload in enumerate(items)
            ]
            workers, use_pool = self._mode(fn, items, tracked, results,
                                           progress, done_box, drain)
            remaining = [t for t in tracked if results[t.position] is None]
            if use_pool and remaining:
                self._run_pooled(
                    fn, remaining, workers, drain, results, progress, done_box
                )
            elif remaining:
                self._run_inline(fn, remaining, drain, results, progress, done_box)
        # Whatever never ran (signal drain) comes back as a skipped
        # placeholder: present, ordered, but excluded from accounting.
        for position, payload in enumerate(items):
            if results[position] is None:
                results[position] = self._skipped_outcome(position, payload)
                self.last_interrupted = True
        return results

    # -- mode selection ------------------------------------------------

    def _mode(
        self, fn, items, tracked, results, progress, done_box, drain
    ) -> Tuple[int, bool]:
        """(workers, use_pool) for this batch, honouring the inner backend.

        An :class:`~repro.exec.executor.AutoBackend` inner still gets
        its serial probe: the head runs inline here (its results are
        kept), and the probe's projection decides whether the tail is
        worth a pool — the decision lands on ``inner.last_decision``.
        """
        inner = self.inner
        forced = self._requires_pool(items) or self.policy.deadline_s is not None
        if isinstance(inner, ProcessPoolBackend):
            workers = min(inner.workers, max(len(items), 1))
            return workers, workers > 1 or forced
        if isinstance(inner, AutoBackend):
            use_pool, workers = inner.probe(
                items,
                runner=lambda item, position: self._run_one_inline(
                    fn, tracked[position], drain, results, progress, done_box
                ),
            )
            return workers, use_pool or forced
        # Serial (or unknown) inner: inline unless preemption forces a
        # process boundary.
        return 1, forced

    # -- inline execution ----------------------------------------------

    def _run_one_inline(
        self, fn, tracked: _Tracked, drain, results, progress, done_box
    ) -> Optional[FlowOutcome]:
        if drain.tripped:
            return None
        tracked.executions += 1
        outcome = fn(tracked.payload)
        self._complete(tracked, outcome, results, progress, done_box)
        return outcome

    def _run_inline(self, fn, remaining, drain, results, progress, done_box):
        for tracked in remaining:
            if drain.tripped:
                break
            self._run_one_inline(fn, tracked, drain, results, progress, done_box)

    # -- pooled execution ----------------------------------------------

    def _run_pooled(
        self, fn, remaining, workers, drain, results, progress, done_box
    ) -> None:
        policy = self.policy
        self._isolation_fn = fn
        restarts = [0]
        pending = deque(remaining)
        pool: Optional[ProcessPoolExecutor] = None
        inflight: Dict[object, _Tracked] = {}
        order: Dict[object, int] = {}
        submitted = 0
        try:
            while pending or inflight:
                if drain.tripped:
                    self._drain_inflight(
                        pool, inflight, results, progress, done_box
                    )
                    pool = None
                    return  # pending never ran: map() marks them skipped
                if pool is None:
                    pool = self._fresh_pool(min(workers, max(len(pending), 1)))
                submit_broke = False
                while pending and len(inflight) < workers:
                    tracked = pending.popleft()
                    action = self._action_for(tracked.payload, tracked.executions)
                    tracked.executions += 1
                    tracked.started = time.monotonic()
                    try:
                        future = pool.submit(
                            _supervised_call, fn, tracked.payload, action
                        )
                    except BrokenProcessPool:
                        # The pool broke between waits (a worker died
                        # while idle, or its break was detected late).
                        # This payload never ran: roll it back and let
                        # the crash path below sort out the in-flight.
                        tracked.executions -= 1
                        pending.appendleft(tracked)
                        submit_broke = True
                        break
                    inflight[future] = tracked
                    order[future] = submitted
                    submitted += 1
                if submit_broke and not inflight:
                    # Nothing was in flight, so nobody is a suspect:
                    # the pool just needs rebuilding (budget applies).
                    restarts[0] += 1
                    self._kill_pool(pool)
                    pool = None
                    if restarts[0] > self.policy.max_worker_restarts:
                        self._give_up_all(
                            [], pending, "worker-restart budget exhausted",
                            results, progress, done_box,
                        )
                    continue
                done, _ = wait(
                    list(inflight),
                    timeout=self._wait_timeout(inflight, drain),
                    return_when=FIRST_COMPLETED,
                )
                crashed: List[_Tracked] = []
                for future in sorted(done, key=order.__getitem__):
                    tracked = inflight.pop(future)
                    order.pop(future, None)
                    try:
                        outcome = future.result()
                    except BrokenProcessPool:
                        crashed.append(tracked)
                    except BaseException as error:  # worker-side raise
                        self._record_worker_error(
                            tracked, error, pending, results, progress, done_box
                        )
                    else:
                        self._complete(
                            tracked, outcome, results, progress, done_box
                        )
                if crashed:
                    bystanders = sorted(
                        inflight.values(), key=lambda t: t.position
                    )
                    inflight.clear()
                    order.clear()
                    self._kill_pool(pool)
                    pool = None
                    self._handle_crash(
                        crashed, bystanders, workers, restarts, pending,
                        results, progress, done_box,
                    )
                    continue
                if policy.deadline_s is not None and inflight:
                    now = time.monotonic()
                    overdue = [
                        tracked
                        for tracked in inflight.values()
                        if now - tracked.started > policy.deadline_s
                    ]
                    if overdue:
                        bystanders = [
                            tracked
                            for tracked in inflight.values()
                            if tracked not in overdue
                        ]
                        inflight.clear()
                        order.clear()
                        self._kill_pool(pool)
                        pool = None
                        self._handle_deadline(
                            overdue, bystanders, restarts, pending,
                            results, progress, done_box,
                        )
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)

    def _wait_timeout(self, inflight: Dict[object, _Tracked], drain) -> float:
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

    def _handle_crash(
        self, crashed, bystanders, workers, restarts, pending,
        results, progress, done_box,
    ) -> None:
        """A pool break: isolate the killer(s), re-run the innocent.

        With one worker the single in-flight payload *is* the killer.
        With several, nobody knows whose worker died — every broken
        execution is rolled back (the execution index is not consumed)
        and the suspects are re-run through an ordered one-worker
        isolation probe, where the first break identifies a killer
        exactly.  Bystanders re-run with no failure record.
        """
        restarts[0] += 1
        suspects = sorted(crashed + list(bystanders), key=lambda t: t.position)
        if restarts[0] > self.policy.max_worker_restarts:
            self._give_up_all(
                suspects, pending, "worker-restart budget exhausted",
                results, progress, done_box,
            )
            return
        if len(suspects) == 1:
            self._record_crash(
                suspects[0], pending, results, progress, done_box
            )
            return
        for tracked in suspects:
            tracked.executions -= 1  # aborted: the execution never counted
        print(
            f"supervise: worker died; isolating the killer among "
            f"{len(suspects)} in-flight flows",
            file=sys.stderr,
            flush=True,
        )
        for tracked in reversed(suspects):
            pending.appendleft(tracked)
        # The isolation probe is simply the same loop at workers=1: the
        # re-queued suspects run in order, and the next break has
        # exactly one in-flight payload — the killer.  (Flows queued
        # behind them are unaffected: they execute after isolation,
        # wherever the pool is by then.)
        # Switching the whole remainder to one worker would serialise
        # the campaign, so only the suspects are probed: they sit at
        # the queue front, and we momentarily cap submission.
        self._isolate(suspects, pending, restarts, results, progress, done_box)

    def _isolate(
        self, suspects, pending, restarts, results, progress, done_box
    ) -> None:
        """Ordered one-worker probe over the suspect list.

        Runs the suspects (currently at the front of ``pending``)
        through dedicated single-worker pools until none of them is
        left; each break identifies the first unfinished suspect as a
        killer.  Deadlines still apply — a suspect that *hangs* rather
        than crashes is preempted here too.
        """
        suspect_set = {id(t) for t in suspects}
        probe = deque()
        while pending and id(pending[0]) in suspect_set:
            probe.append(pending.popleft())
        fn = self._isolation_fn
        while probe:
            tracked = probe.popleft()
            if restarts[0] > self.policy.max_worker_restarts:
                self._give_up_all(
                    [tracked], probe, "worker-restart budget exhausted",
                    results, progress, done_box,
                )
                continue
            self._probe_one(
                fn, tracked, restarts, probe, results, progress, done_box
            )

    #: set by map() so isolation probes reuse the same mapped function
    _isolation_fn: Optional[Callable] = None

    def _probe_one(
        self, fn, tracked, restarts, requeue, results, progress, done_box
    ) -> bool:
        """Run one suspect alone in a fresh single-worker pool."""
        pool = self._fresh_pool(1)
        action = self._action_for(tracked.payload, tracked.executions)
        tracked.executions += 1
        tracked.started = time.monotonic()
        future = pool.submit(_supervised_call, fn, tracked.payload, action)
        deadline = self.policy.deadline_s
        try:
            while True:
                done, _ = wait([future], timeout=self.POLL_S)
                if done:
                    try:
                        outcome = future.result()
                    except BrokenProcessPool:
                        restarts[0] += 1
                        self._kill_pool(pool)
                        self._record_crash(
                            tracked, requeue, results, progress, done_box
                        )
                        return False
                    except BaseException as error:
                        self._record_worker_error(
                            tracked, error, requeue, results, progress, done_box
                        )
                        return False
                    else:
                        self._complete(
                            tracked, outcome, results, progress, done_box
                        )
                        return True
                if (
                    deadline is not None
                    and time.monotonic() - tracked.started > deadline
                ):
                    restarts[0] += 1
                    self._kill_pool(pool)
                    self._record_deadline(
                        tracked, requeue, results, progress, done_box
                    )
                    return False
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    def _handle_deadline(
        self, overdue, bystanders, restarts, pending,
        results, progress, done_box,
    ) -> None:
        """Preempt hung flows; re-run the innocent without a record."""
        restarts[0] += 1
        if restarts[0] > self.policy.max_worker_restarts:
            self._give_up_all(
                sorted(overdue + bystanders, key=lambda t: t.position),
                pending, "worker-restart budget exhausted",
                results, progress, done_box,
            )
            return
        for tracked in sorted(bystanders, key=lambda t: t.position, reverse=True):
            tracked.executions -= 1  # aborted, not failed
            pending.appendleft(tracked)
        for tracked in sorted(overdue, key=lambda t: t.position):
            self._record_deadline(tracked, pending, results, progress, done_box)

    def _record_crash(
        self, tracked, requeue, results, progress, done_box
    ) -> None:
        spec = tracked.spec
        tracked.failures.append(
            FlowFailure(
                flow_id=spec.flow_id,
                attempt=tracked.executions - 1,
                seed=spec.seed,
                error_type="WorkerCrashError",
                error=(
                    "worker process died while running this flow "
                    f"(exit status {_CRASH_EXIT_STATUS} or signal); "
                    "pool rebuilt"
                ),
                failure_class="worker_crash",
            )
        )
        print(
            f"supervise: worker crashed on {spec.flow_id!r} "
            f"(execution {tracked.executions - 1}); pool rebuilt",
            file=sys.stderr,
            flush=True,
        )
        self._retry_or_give_up(tracked, requeue, results, progress, done_box)

    def _record_deadline(
        self, tracked, requeue, results, progress, done_box
    ) -> None:
        spec = tracked.spec
        deadline = self.policy.deadline_s
        tracked.failures.append(
            FlowFailure(
                flow_id=spec.flow_id,
                attempt=tracked.executions - 1,
                seed=spec.seed,
                error_type="DeadlineExceededError",
                error=(
                    f"flow exceeded its {deadline:g}s wall-clock deadline; "
                    "worker killed"
                ),
                failure_class="deadline",
            )
        )
        print(
            f"supervise: {spec.flow_id!r} exceeded its {deadline:g}s "
            f"deadline (execution {tracked.executions - 1}); worker killed",
            file=sys.stderr,
            flush=True,
        )
        self._retry_or_give_up(tracked, requeue, results, progress, done_box)

    def _record_worker_error(
        self, tracked, error, requeue, results, progress, done_box
    ) -> None:
        """A worker-side exception that escaped the payload's own retry
        loop (injected chaos, pickling trouble): taxonomy applies."""
        spec = tracked.spec
        failure_class = tracked.retry_policy.classify(error)
        tracked.failures.append(
            FlowFailure(
                flow_id=spec.flow_id,
                attempt=tracked.executions - 1,
                seed=spec.seed,
                error_type=type(error).__name__,
                error=str(error),
                failure_class=failure_class,
            )
        )
        if failure_class == "deterministic":
            self._give_up(
                tracked,
                f"deterministic failure: {type(error).__name__}: {error}",
                results, progress, done_box,
            )
            return
        self._retry_or_give_up(tracked, requeue, results, progress, done_box)

    def _retry_or_give_up(
        self, tracked, requeue, results, progress, done_box
    ) -> None:
        budget = tracked.retry_policy.max_attempts
        if len(tracked.failures) >= budget:
            last = tracked.failures[-1]
            self._give_up(
                tracked,
                (
                    f"supervisor gave up after {len(tracked.failures)} "
                    f"failed executions; last: {last.error_type}: {last.error}"
                ),
                results, progress, done_box,
            )
            return
        requeue.appendleft(tracked)

    def _give_up(self, tracked, reason, results, progress, done_box) -> None:
        spec = tracked.spec
        outcome = FlowOutcome(
            index=tracked.payload[0],
            spec=spec,
            result=None,
            trace=None,
            failures=list(tracked.failures),
            quarantine=QuarantineRecord(
                flow_id=spec.flow_id, seed=spec.seed, reason=reason
            ),
            attempts=max(len(tracked.failures), 1),
        )
        tracked.failures = []  # already on the outcome; don't double-merge
        self._complete(tracked, outcome, results, progress, done_box)

    def _give_up_all(
        self, suspects, pending, reason, results, progress, done_box
    ) -> None:
        print(
            f"supervise: {reason} "
            f"(max_worker_restarts={self.policy.max_worker_restarts}); "
            f"quarantining the {len(suspects) + len(pending)} unfinished flows",
            file=sys.stderr,
            flush=True,
        )
        for tracked in list(suspects) + list(pending):
            self._give_up(tracked, reason, results, progress, done_box)
        pending.clear()

    # -- completion ----------------------------------------------------

    def _complete(self, tracked, outcome, results, progress, done_box) -> None:
        """Merge supervisor-level failures into the outcome and file it."""
        if tracked.failures:
            outcome.failures = list(tracked.failures) + list(outcome.failures)
            outcome.attempts += len(tracked.failures)
        results[tracked.position] = outcome
        done_box[0] += 1
        if progress is not None:
            progress(done_box[0])

    @staticmethod
    def _skipped_outcome(position: int, payload: Tuple) -> FlowOutcome:
        index, spec, _policy = payload
        return FlowOutcome(
            index=index,
            spec=spec,
            result=None,
            trace=None,
            attempts=0,
            skipped=True,
        )

    # -- pool plumbing -------------------------------------------------

    @staticmethod
    def _fresh_pool(workers: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=max(workers, 1), mp_context=get_context("spawn")
        )

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

    def _drain_inflight(
        self, pool, inflight, results, progress, done_box
    ) -> None:
        """Signal drain: give in-flight flows ``grace_s``, then kill."""
        if not inflight:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
            return
        done, not_done = wait(list(inflight), timeout=self.policy.grace_s)
        for future in done:
            tracked = inflight.pop(future)
            try:
                outcome = future.result()
            except BaseException:
                tracked.executions -= 1  # lost to the drain, not failed
            else:
                self._complete(tracked, outcome, results, progress, done_box)
        for future in not_done:
            tracked = inflight.pop(future)
            tracked.executions -= 1  # preempted by the drain, not failed
        if pool is not None:
            if not_done:
                self._kill_pool(pool)
            else:
                pool.shutdown(wait=False, cancel_futures=True)
