"""Fault-tolerant campaign supervision: the stage that runs every batch.

The retry/quarantine loop of :mod:`repro.exec.executor` protects a
campaign from flows that *raise*; this module protects it from failure
modes that an in-process ``except`` can never see:

* **worker death** — a spawn worker that segfaults, is OOM-killed, or
  calls ``os._exit`` breaks the whole ``ProcessPoolExecutor``
  (``BrokenProcessPool``) and, unsupervised, loses the entire batch.
  The :class:`SupervisedBackend` catches the break, rebuilds the pool,
  and pins the blame inside its one pool loop.  A break with a single
  flow in flight names the killer outright.  With several in flight
  nobody knows whose worker died, so every one of them is rolled back
  to the front of the queue and submission is capped at one in-flight
  flow until each of these suspects has finished or failed: the next
  break then has exactly one flow in flight, and that flow **is** the
  killer.  The killer gets a :class:`~repro.robustness.campaign.FlowFailure`
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
from contextvars import ContextVar
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.exec.chaos import ChaosPlan
from repro.exec.executor import FlowOutcome, ProcessPoolBackend, SerialBackend
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
    (``None`` disables preemption).  Its clock starts when the parent
    submits the flow to the pool, not when the flow starts in the
    worker, so it also counts spawn-worker start-up and imports; a
    deadline shorter than that preempts healthy flows (ROADMAP item 6
    moves the start into the worker).  ``max_worker_restarts`` caps how
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

    Module-level so the spawn pool can pickle it.  ``action`` is a
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


@dataclass(eq=False)
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


def _by_position(tracked: _Tracked) -> int:
    return tracked.position


@dataclass
class _Batch:
    """The state of one :meth:`SupervisedBackend.map` call."""

    results: List[Optional[FlowOutcome]]
    progress: Optional[Callable[[int], None]]
    drain: _DrainGuard
    #: flows waiting for a pool slot; failures and aborts requeue at the front
    pending: deque[_Tracked] = field(default_factory=deque)
    done: int = 0
    #: pool rebuilds so far, against ``max_worker_restarts``
    restarts: int = 0

    def complete(self, tracked: _Tracked, outcome: FlowOutcome) -> None:
        """Merge supervisor-level failures into the outcome and file it."""
        if tracked.failures:
            outcome.failures = list(tracked.failures) + list(outcome.failures)
            outcome.attempts += len(tracked.failures)
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

    Runs a batch on a *placement*: the inner backend only says where
    (serial inline, or a worker pool and its width), while
    the supervisor owns the pool itself so it can kill and rebuild it.
    :meth:`map` is the only code that runs a batch, and
    :meth:`_run_pooled` the only code that submits to a pool — first
    runs, retries, killer isolation and deadline preemption alike.
    Failure handling needs the executor payload contract — ``(index,
    FlowSpec, RetryPolicy)`` tuples mapped over a picklable function —
    which is exactly what :class:`~repro.exec.executor.Executor`
    submits; a batch that never fails may map any items (picklable when
    pooled).

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
        fn: Callable,
        items: Sequence,
        progress: Optional[Callable[[int], None]] = None,
    ) -> List:
        items = list(items)
        self.last_interrupted = False
        tracked = [
            _Tracked(position=position, payload=payload)
            for position, payload in enumerate(items)
        ]
        with _DrainGuard(self.policy.drain_signals) as drain:
            batch = _Batch([None] * len(items), progress, drain)
            workers, use_pool = self._mode(fn, items, tracked, batch)
            remaining = [t for t in tracked if batch.results[t.position] is None]
            if use_pool and remaining:
                self._run_pooled(fn, remaining, workers, batch)
            else:
                for flow in remaining:
                    self._run_one_inline(fn, flow, batch)
        # Whatever never ran (signal drain) comes back as a skipped
        # placeholder: present, ordered, but excluded from accounting.
        results = batch.results
        for position, payload in enumerate(items):
            if results[position] is None:
                results[position] = self._skipped_outcome(position, payload)
                self.last_interrupted = True
        return results

    # -- mode selection ------------------------------------------------

    def _mode(self, fn, items, tracked, batch) -> Tuple[int, bool]:
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
            workers = min(inner.workers, max(len(items), 1))
            return workers, workers > 1 or forced
        if forced:
            # An inline probe would run its flows beyond the deadline's
            # and the chaos schedule's reach.
            return self._forced_pool(inner, len(items)), True
        return self._probe(fn, inner, tracked, batch)

    def _probe(
        self, fn, placement: ProcessPoolBackend, tracked, batch: _Batch
    ) -> Tuple[int, bool]:
        """Run an ``auto`` placement's serial probe and decide.

        The first :data:`PROBE_ITEMS` flows run inline (their outcomes
        are filed like any other); the measured per-item cost projects
        the serial finish time for the remainder, which is compared
        against a conservative estimate of the pool path (spawn +
        per-worker startup, amortised execution).  Returns ``(workers,
        use_pool)`` for the remainder; the decision lands on
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
        for flow in tracked[: self.PROBE_ITEMS]:
            self._run_one_inline(fn, flow, batch)
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

    def _run_one_inline(
        self, fn, tracked: _Tracked, batch: _Batch
    ) -> Optional[FlowOutcome]:
        if batch.drain.tripped:
            return None
        tracked.executions += 1
        outcome = fn(tracked.payload)
        batch.complete(tracked, outcome)
        return outcome

    # -- pooled execution ----------------------------------------------

    def _run_pooled(self, fn, remaining, workers, batch: _Batch) -> None:
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
                            _supervised_call, fn, tracked.payload, action
                        )
                    except BrokenProcessPool:
                        # The pool broke between waits (a worker died
                        # while idle, or its break was detected late).
                        # This payload never ran: roll it back and let
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
                        outcome = future.result()
                    except BrokenProcessPool:
                        broken.append(tracked)
                        continue
                    except BaseException as error:  # worker-side raise
                        self._record(
                            tracked, type(error).__name__, str(error),
                            tracked.retry_policy.classify(error), None, batch,
                        )
                    else:
                        batch.complete(tracked, outcome)
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

    def _record(
        self, tracked, error_type, error, failure_class, note, batch: _Batch
    ) -> None:
        """File one failed execution, then retry or quarantine the flow.

        ``note`` is the stderr line (without the ``supervise:`` prefix)
        for failures the worker could not report itself.  Failure
        classes follow the retry taxonomy: a ``deterministic`` one
        quarantines at once.
        """
        spec = tracked.spec
        tracked.failures.append(
            FlowFailure(
                flow_id=spec.flow_id,
                attempt=tracked.executions - 1,
                seed=spec.seed,
                error_type=error_type,
                error=error,
                failure_class=failure_class,
            )
        )
        if note is not None:
            print(f"supervise: {note}", file=sys.stderr, flush=True)
        if failure_class == "deterministic":
            self._give_up(
                tracked, f"deterministic failure: {error_type}: {error}", batch
            )
        elif len(tracked.failures) >= tracked.retry_policy.max_attempts:
            last = tracked.failures[-1]
            self._give_up(
                tracked,
                (
                    f"supervisor gave up after {len(tracked.failures)} "
                    f"failed executions; last: {last.error_type}: {last.error}"
                ),
                batch,
            )
        else:
            batch.pending.appendleft(tracked)

    def _give_up(self, tracked, reason, batch: _Batch) -> None:
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
                outcome = future.result()
            except BaseException:
                tracked.executions -= 1  # lost to the drain, not failed
            else:
                batch.complete(tracked, outcome)
        for future in not_done:
            tracked = inflight.pop(future)
            tracked.executions -= 1  # preempted by the drain, not failed
        if pool is not None:
            if not_done:
                self._kill_pool(pool)
            else:
                pool.shutdown(wait=False, cancel_futures=True)
