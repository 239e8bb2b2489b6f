"""The campaign coordinator: lease server and merger.

One coordinator owns one batch of executor payloads.  It plans the
batch into shards (:class:`~repro.fabric.shard.ShardPlan`), serves
leases over HTTP to any number of workers, ingests each completed
shard's pickled :class:`~repro.exec.executor.FlowOutcome` list, and
keys every accepted outcome by payload *position* — so when the
campaign drains, :meth:`wait` returns the outcome list in the original
batch order and the executor's spec-order report/telemetry merge
produces bytes identical to a serial run, regardless of how many
workers ran, died, or joined along the way.

The wire protocol is four JSON endpoints (pickles travel base64-inside
JSON — payloads and outcomes are arbitrary Python objects; the fabric
trusts its workers exactly as much as a process pool trusts its
children)::

    GET  /campaign  -> {campaign, total_payloads, shards, fn}
    POST /lease     -> {status: lease|wait|done, shard, epoch, payloads, actions}
    POST /complete  -> {accepted, done}
    GET  /progress  -> {completed, total, shards_done, shards, telemetry, ...}

Completion acceptance is the lease table's epoch rule: one accepted
completion per shard, ever.  A lease's ``actions`` are the driver
supervisor's chaos schedule, one per payload, keyed on the flow and
the lease's execution index ``epoch - 1`` — so a scheduled crash lands
on a named flow's first run, whichever worker leased it, and the
re-lease runs clean.  The telemetry on ``/progress`` is a *live*
aggregate of the accepted outcomes (merge order is arrival order —
counter sums are commutative); the byte-stable artefact is still
assembled by the executor from the returned outcomes in spec order.
"""

from __future__ import annotations

import base64
import contextlib
import json
import pickle
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.exec.executor import FlowOutcome
from repro.fabric.shard import DEFAULT_SHARD_SIZE, LeaseTable, ShardPlan
from repro.store.remote import _Handler, _QuietThreadingHTTPServer
from repro.telemetry.campaign import CampaignTelemetry

__all__ = ["CampaignCoordinator"]

#: the supervisor's chaos hook: (payload, execution index) -> action
ActionFor = Callable[[Tuple, int], Optional[Tuple]]


def _pickle_b64(obj) -> str:
    return base64.b64encode(pickle.dumps(obj)).decode("ascii")


def _unpickle_b64(data: str):
    return pickle.loads(base64.b64decode(data))


class _CoordinatorHandler(_Handler):
    server_version = "repro-fabric"

    @property
    def _coordinator(self) -> "CampaignCoordinator":
        return self.server.coordinator  # type: ignore[attr-defined]

    def _read_json(self) -> Dict[str, object]:
        return json.loads(self._read_body() or b"{}")

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler name
        if self.path == "/campaign":
            self._respond_json(200, self._coordinator.describe())
        elif self.path == "/progress":
            self._respond_json(200, self._coordinator.progress_info())
        elif self.path == "/healthz":
            self._respond_json(200, {"status": "ok"})
        else:
            self._respond_json(404, {"error": "unknown path"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler name
        if self.path == "/lease":
            data = self._read_json()
            self._respond_json(
                200, self._coordinator.lease(str(data.get("worker", "anonymous")))
            )
        elif self.path == "/complete":
            self._respond_json(200, self._coordinator.complete(self._read_json()))
        else:
            self._respond_json(404, {"error": "unknown path"})


class CampaignCoordinator:
    """Lease out one payload batch and merge what comes back."""

    def __init__(
        self,
        fn: Callable,
        payloads: Sequence[Tuple],
        *,
        shard_size: int = DEFAULT_SHARD_SIZE,
        lease_timeout_s: float = 30.0,
        steal_age_s: Optional[float] = None,
        action_for: Optional[ActionFor] = None,
        campaign_id: str = "campaign",
    ) -> None:
        self.fn = fn
        self.payloads = list(payloads)
        self.plan = ShardPlan.for_payloads(self.payloads, shard_size=shard_size)
        self.leases = LeaseTable(
            self.plan.shard_count,
            lease_timeout_s=lease_timeout_s,
            steal_age_s=steal_age_s,
        )
        #: the driver supervisor's chaos hook; None schedules no actions
        self.action_for = action_for
        self.campaign_id = campaign_id
        self._results: List[Optional[FlowOutcome]] = [None] * len(self.payloads)
        self._completed = 0
        #: live telemetry aggregate over accepted outcomes, in arrival
        #: order (commutative sums; display only — the byte-stable
        #: artefact is merged in spec order by the executor)
        self.telemetry = CampaignTelemetry()
        self._lock = threading.Lock()
        self._http: Optional[_QuietThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        #: workers ever seen on /lease, for progress reporting
        self._workers_seen: Dict[str, int] = {}

    # -- handler-facing operations (each takes the lock once) ----------

    def describe(self) -> Dict[str, object]:
        return {
            "campaign": self.campaign_id,
            "total_payloads": len(self.payloads),
            "shards": self.plan.shard_count,
            "fn": _pickle_b64(self.fn),
        }

    def lease(self, worker: str) -> Dict[str, object]:
        with self._lock:
            self._workers_seen[worker] = self._workers_seen.get(worker, 0) + 1
            if self.leases.done:
                return {"status": "done"}
            lease = self.leases.claim(worker)
            if lease is None:
                return {"status": "wait"}
            payloads = [self.payloads[p] for p in self.plan.shards[lease.shard]]
            execution = lease.epoch - 1
            return {
                "status": "lease",
                "shard": lease.shard,
                "epoch": lease.epoch,
                "payloads": _pickle_b64(payloads),
                "actions": [
                    None if self.action_for is None
                    else self.action_for(payload, execution)
                    for payload in payloads
                ],
            }

    def complete(self, data: Dict[str, object]) -> Dict[str, object]:
        shard = int(data["shard"])
        epoch = int(data["epoch"])
        outcomes: List[FlowOutcome] = _unpickle_b64(data["outcomes"])
        with self._lock:
            accepted = self.leases.complete(shard, epoch)
            if accepted:
                positions = self.plan.shards[shard]
                for position, outcome in zip(positions, outcomes):
                    self._results[position] = outcome
                    self._completed += 1
                    # the fabric maps arbitrary fns; only a FlowOutcome
                    # with a result has counters to summarise
                    if isinstance(outcome, FlowOutcome) and outcome.result is not None:
                        self.telemetry.merge_outcome(outcome)
            return {"accepted": accepted, "done": self.leases.done}

    def progress_info(self) -> Dict[str, object]:
        with self._lock:
            return {
                "campaign": self.campaign_id,
                "completed": self._completed,
                "total": len(self.payloads),
                "shards_done": self.leases.done_count,
                "shards": self.plan.shard_count,
                "workers_seen": sorted(self._workers_seen),
                "leases_expired": self.leases.expired,
                "leases_stolen": self.leases.stolen,
                "completions_rejected": self.leases.rejected,
                "telemetry": self.telemetry.to_dict(),
            }

    # -- lifecycle -----------------------------------------------------

    @property
    def done(self) -> bool:
        with self._lock:
            return self.leases.done

    @property
    def completed(self) -> int:
        with self._lock:
            return self._completed

    @property
    def url(self) -> str:
        if self._http is None:
            raise RuntimeError("coordinator is not serving")
        host, port = self._http.server_address[:2]
        return f"http://{host}:{port}"

    def serve(self, host: str = "127.0.0.1", port: int = 0) -> str:
        """Start serving on a daemon thread; returns the bound URL."""
        self._http = _QuietThreadingHTTPServer((host, port), _CoordinatorHandler)
        self._http.coordinator = self  # type: ignore[attr-defined]
        self._thread = threading.Thread(
            target=self._http.serve_forever,
            name="repro-fabric-coordinator",
            daemon=True,
        )
        self._thread.start()
        return self.url

    def close(self) -> None:
        if self._http is not None:
            self._http.shutdown()
            self._http.server_close()
            self._http = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    @contextlib.contextmanager
    def serving(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> Iterator[str]:
        url = self.serve(host, port)
        try:
            yield url
        finally:
            self.close()

    def wait(
        self,
        progress: Optional[Callable[[int], None]] = None,
        *,
        poll_s: float = 0.05,
        tick: Optional[Callable[[], None]] = None,
        timeout_s: Optional[float] = None,
    ) -> List[FlowOutcome]:
        """Block until every shard completes; outcomes in batch order.

        ``tick`` runs once per poll (the backend's worker keep-alive
        hook); ``timeout_s`` bounds the wait for tests — production
        campaigns wait indefinitely, because a fabric with no live
        workers is a fabric *waiting for workers to attach*, not a
        failure.
        """
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        reported = -1
        while not self.done:
            if tick is not None:
                tick()
            if progress is not None:
                completed = self.completed
                if completed != reported:
                    progress(completed)
                    reported = completed
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"fabric campaign incomplete after {timeout_s}s "
                    f"({self.completed}/{len(self.payloads)} payloads)"
                )
            time.sleep(poll_s)
        if progress is not None and self.completed != reported:
            progress(self.completed)
        with self._lock:
            # done ⇒ every shard accepted exactly one completion ⇒
            # every position is filled.
            return list(self._results)
