"""Discrete-event simulation engine.

A minimal, deterministic event loop: events are plain tuples
``(time, insertion-order, action, payload, handle)`` on a binary heap,
so simultaneous events fire in the order they were scheduled — which
makes every simulation run bit-reproducible for a given seed — and the
heap compares tuples in C (the insertion order is unique, so comparison
never reaches the callback).

Two scheduling paths share the heap:

* :meth:`Simulator.schedule` — returns an :class:`EventHandle` that can
  cancel the callback before it fires (used heavily by the
  retransmission and delayed-ACK timers).  Cancellation is lazy: the
  handle flips a flag and the event is discarded when popped.
* :meth:`Simulator.schedule_call` — the hot path for packet delivery.
  No handle is allocated; the callback fires as ``action(payload,
  fire_time)``, so a link can schedule its ``deliver`` callback with
  the packet as payload instead of allocating a closure per packet.

The engine keeps its own event accounting as plain counters read at
the end of a run (:attr:`Simulator.events_scheduled`,
:attr:`~Simulator.events_processed`, :attr:`~Simulator.events_cancelled`);
a flow's :class:`~repro.simulator.connection.FlowResult` carries them.
"""

from __future__ import annotations

import heapq
import time as _time
from typing import Callable, List, Optional, Sequence, Tuple

from repro.util.errors import BudgetExceededError, SimulationError

#: How often (in processed events) the wall-clock deadline is polled;
#: ``time.monotonic()`` per event would be measurable on million-event
#: runs, and a 256-event granularity is far finer than any sane budget.
_WALL_CHECK_INTERVAL = 256

#: Sentinel marking a no-payload event (fired as ``action()``).  Not
#: ``None``: ``None`` is a legitimate payload value.
_NO_PAYLOAD = object()

__all__ = ["EventHandle", "Simulator"]


class EventHandle:
    """A scheduled callback that can be cancelled before it fires.

    The handle is a tombstone flag, not the heap entry itself: the
    entry stays queued after :meth:`cancel` and is dropped when popped.
    """

    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from firing; idempotent."""
        self.cancelled = True


class Simulator:
    """The event loop: a clock plus a priority queue of callbacks."""

    __slots__ = ("now", "_queue", "_sequence", "_events_processed")

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: List[Tuple] = []
        self._sequence = 0
        self._events_processed = 0

    @property
    def events_processed(self) -> int:
        """Callbacks executed so far, across every :meth:`run` call."""
        return self._events_processed

    @property
    def events_scheduled(self) -> int:
        """Events pushed so far, by every scheduling path."""
        return self._sequence

    @property
    def events_cancelled(self) -> int:
        """Scheduled events that will never fire: every event neither
        executed nor still live in the queue.

        A cancelled handle counts once however often it is cancelled,
        and an event the ``until`` horizon or a tripped budget put back
        stays live.  O(queue length), like :attr:`live_events`.
        """
        return self._sequence - self._events_processed - self.live_events

    @property
    def pending_events(self) -> int:
        """Number of queued events, including cancelled ones not yet popped.

        This is the raw queue length (O(1)); cancelled-but-unpopped
        events — e.g. restarted RTO timers — still count.  Use
        :attr:`live_events` for the number of events that can actually
        fire.
        """
        return len(self._queue)

    @property
    def live_events(self) -> int:
        """Number of queued events that will actually fire (not cancelled).

        O(queue length); meant for diagnostics (watchdog reports, test
        assertions), not hot paths.
        """
        return sum(
            1 for entry in self._queue if entry[4] is None or not entry[4].cancelled
        )

    def schedule(self, delay: float, action: Callable[[], None]) -> EventHandle:
        """Schedule ``action()`` to run ``delay`` seconds from now."""
        if delay < 0.0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        handle = EventHandle()
        heapq.heappush(
            self._queue, (self.now + delay, self._sequence, action, _NO_PAYLOAD, handle)
        )
        self._sequence += 1
        return handle

    def schedule_call(self, delay: float, action: Callable, payload) -> None:
        """Schedule ``action(payload, fire_time)`` — the non-cancellable fast path.

        Allocates no handle and no closure: the payload rides in the
        heap entry and the engine passes the event's fire time as the
        second argument.  This is what links use to deliver packets.
        """
        if delay < 0.0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(
            self._queue, (self.now + delay, self._sequence, action, payload, None)
        )
        self._sequence += 1

    def schedule_calls_at(
        self, times: Sequence[float], action: Callable, payloads: Sequence
    ) -> None:
        """Schedule a batch of ``action(payload, fire_time)`` events.

        ``times`` are *absolute* simulation times, one per payload; all
        events share ``action``.  Equivalent to a loop of
        :meth:`schedule_call` — same heap entries, same consecutive
        sequence numbers in list order — but the sequence counter and
        heap push are bound once per batch, which is what makes burst
        delivery (``Link.send_burst``) cheaper than per-packet calls.
        """
        if len(times) != len(payloads):
            raise SimulationError(
                f"batch mismatch: {len(times)} times for {len(payloads)} payloads"
            )
        now = self.now
        queue = self._queue
        heappush = heapq.heappush
        sequence = self._sequence
        for time, payload in zip(times, payloads):
            if time < now:
                self._sequence = sequence
                raise SimulationError(
                    f"cannot schedule into the past (time={time}, now={now})"
                )
            heappush(queue, (time, sequence, action, payload, None))
            sequence += 1
        self._sequence = sequence

    def schedule_at(self, time: float, action: Callable[[], None]) -> EventHandle:
        """Schedule ``action`` at an absolute simulation time."""
        return self.schedule(time - self.now, action)

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        stop_condition: Optional[Callable[[], bool]] = None,
        event_budget: Optional[int] = None,
        time_budget: Optional[float] = None,
        wall_deadline: Optional[float] = None,
    ) -> None:
        """Process events in time order.

        Stops when the queue drains, when the clock would pass
        ``until``, after ``max_events`` callbacks, or as soon as
        ``stop_condition()`` returns True (checked between events).
        The clock is advanced to ``until`` when the horizon is the
        reason for stopping, so throughput denominators are exact.

        Watchdog budgets, unlike the graceful stops above, *raise*
        :class:`~repro.util.errors.BudgetExceededError`:

        * ``event_budget`` — a live event beyond this many processed
          callbacks (this call) means a runaway loop;
        * ``time_budget`` — an event past this simulated time means the
          clock escaped its intended horizon;
        * ``wall_deadline`` — a ``time.monotonic()`` deadline, polled
          every few hundred events.

        The pending queue is left intact when a budget trips, so the
        caller can inspect or resume the simulation.
        """
        if (
            max_events is None
            and stop_condition is None
            and event_budget is None
            and time_budget is None
            and wall_deadline is None
        ):
            self._run_fast(until)
            return
        self._run_guarded(
            until, max_events, stop_condition, event_budget, time_budget, wall_deadline
        )

    def _run_fast(self, until: Optional[float]) -> None:
        """The unguarded loop: only the ``until`` horizon is checked.

        This is the shape every campaign flow runs in (``run_flow``
        without a watchdog), so it is kept free of per-event budget
        checks; locals are bound once outside the loop.
        """
        queue = self._queue
        heappop = heapq.heappop
        no_payload = _NO_PAYLOAD
        processed = self._events_processed
        try:
            while queue:
                entry = heappop(queue)
                handle = entry[4]
                if handle is not None and handle.cancelled:
                    continue
                time = entry[0]
                if until is not None and time > until:
                    # Put it back for a later run() call and stop the
                    # clock exactly at the horizon.
                    heapq.heappush(queue, entry)
                    self.now = until
                    return
                if time < self.now - 1e-12:
                    raise SimulationError(
                        f"event queue corrupted: event at {time} < now {self.now}"
                    )
                self.now = time
                payload = entry[3]
                if payload is no_payload:
                    entry[2]()
                else:
                    entry[2](payload, time)
                processed += 1
        finally:
            self._events_processed = processed
        if until is not None and until > self.now:
            self.now = until

    def _run_guarded(
        self,
        until: Optional[float],
        max_events: Optional[int],
        stop_condition: Optional[Callable[[], bool]],
        event_budget: Optional[int],
        time_budget: Optional[float],
        wall_deadline: Optional[float],
    ) -> None:
        queue = self._queue
        heappop = heapq.heappop
        heappush = heapq.heappush
        no_payload = _NO_PAYLOAD
        processed_this_run = 0
        while queue:
            if max_events is not None and processed_this_run >= max_events:
                return
            if stop_condition is not None and stop_condition():
                return
            entry = heappop(queue)
            handle = entry[4]
            if handle is not None and handle.cancelled:
                continue
            time = entry[0]
            if until is not None and time > until:
                heappush(queue, entry)
                self.now = until
                return
            if time < self.now - 1e-12:
                raise SimulationError(
                    f"event queue corrupted: event at {time} < now {self.now}"
                )
            if event_budget is not None and processed_this_run >= event_budget:
                heappush(queue, entry)
                raise BudgetExceededError(
                    "events",
                    event_budget,
                    f"next live event at t={time:.6g}, now={self.now:.6g}, "
                    f"{self.live_events} live events pending",
                )
            if time_budget is not None and time > time_budget:
                heappush(queue, entry)
                raise BudgetExceededError(
                    "sim-time",
                    time_budget,
                    f"next live event at t={time:.6g}, "
                    f"{self.live_events} live events pending",
                )
            if (
                wall_deadline is not None
                and processed_this_run % _WALL_CHECK_INTERVAL == 0
                and _time.monotonic() > wall_deadline
            ):
                heappush(queue, entry)
                raise BudgetExceededError(
                    "wall-clock",
                    wall_deadline,
                    f"{processed_this_run} events processed, sim time {self.now:.6g}, "
                    f"{self.live_events} live events pending",
                )
            self.now = time
            payload = entry[3]
            if payload is no_payload:
                entry[2]()
            else:
                entry[2](payload, time)
            self._events_processed += 1
            processed_this_run += 1
        if until is not None and until > self.now:
            self.now = until

