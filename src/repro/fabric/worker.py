"""The fabric worker: claim a lease, run the shard, post it back.

A worker is stateless and owns nothing: it learns the campaign (the
pickled-by-reference map function and the store reference) from
``GET /campaign``, then loops *claim → execute → complete* until the
coordinator says the campaign is drained.  Everything that makes the
fabric deterministic lives elsewhere — specs carry their own seeds, the
lease table arbitrates duplicates — so a worker can be SIGKILLed at any
instruction and the campaign still converges to the same bytes: its
leased shard expires, another worker re-runs it, and the re-run is a
pure function of the specs.

When the campaign carries a store reference, the shard runs through a
:class:`~repro.store.backend.CachedBackend` over that store (a
:class:`~repro.store.remote.RemoteStore` client for ``http://``
references), so every completed flow is persisted the moment it
finishes — a worker that dies *after* simulating but *before*
completing its shard has still banked the expensive part, and the
re-run serves those flows as cache hits.

``sigkill_after=N`` (the CLI's ``--sigkill-after``) is the chaos hook
the kill-and-rejoin suites use: the worker SIGKILLs itself — a real
``SIGKILL``, no cleanup, no goodbye — immediately after its Nth flow
*execution* (cache hits don't count), which lands mid-shard by
construction whenever a shard holds more than N flows.
"""

from __future__ import annotations

import base64
import http.client
import json
import os
import pickle
import signal
import socket
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.exec.executor import FlowOutcome
from repro.telemetry.campaign import CampaignTelemetry

__all__ = ["FabricWorker"]


class _CoordinatorClient:
    """Minimal JSON-over-HTTP client for one coordinator, with
    connection reuse and a short transient-failure retry."""

    RETRIES = 3
    RETRY_SLEEP_S = 0.2

    def __init__(self, url: str, timeout_s: float = 30.0) -> None:
        from urllib.parse import urlsplit

        parts = urlsplit(url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(f"coordinator URL must be http://host:port, got {url!r}")
        self.host = parts.hostname
        self.port = parts.port or 80
        self.timeout_s = timeout_s
        self._conn: Optional[http.client.HTTPConnection] = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s
            )
        return self._conn

    def _drop(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except Exception:  # pragma: no cover - close is best-effort
                pass
            self._conn = None

    def request(
        self, method: str, path: str, payload: Optional[Dict[str, object]] = None
    ) -> Dict[str, object]:
        body = None if payload is None else json.dumps(payload).encode()
        last_error: Optional[Exception] = None
        for attempt in range(self.RETRIES):
            if attempt:
                time.sleep(self.RETRY_SLEEP_S)
            try:
                conn = self._connection()
                conn.request(method, path, body=body)
                response = conn.getresponse()
                raw = response.read()
            except (OSError, http.client.HTTPException) as error:
                self._drop()
                last_error = error
                continue
            if response.status != 200:
                raise OSError(
                    f"coordinator {method} {path} failed with {response.status}"
                )
            return json.loads(raw)
        raise OSError(
            f"coordinator {self.host}:{self.port} unreachable: {last_error}"
        )


class _ShardRunner:
    """The serial inner backend a worker's shard runs on.

    Counts real executions so the ``sigkill_after`` chaos hook fires on
    *simulated* flows, not cache hits, and satisfies the backend ``map``
    protocol so a :class:`~repro.store.backend.CachedBackend` can wrap
    it when the campaign carries a store.
    """

    name = "fabric-worker"

    def __init__(self, worker: "FabricWorker") -> None:
        self.worker = worker

    def map(
        self,
        fn: Callable,
        items: Sequence,
        progress: Optional[Callable[[int], None]] = None,
    ) -> List:
        results = []
        for done, item in enumerate(items, start=1):
            results.append(fn(item))
            self.worker.note_execution()
            if progress is not None:
                progress(done)
        return results


class FabricWorker:
    """One claim → execute → complete loop against a coordinator."""

    def __init__(
        self,
        coordinator_url: str,
        *,
        worker_id: Optional[str] = None,
        poll_s: float = 0.2,
        sigkill_after: Optional[int] = None,
    ) -> None:
        self.client = _CoordinatorClient(coordinator_url)
        self.worker_id = (
            worker_id
            if worker_id
            else f"{socket.gethostname()}-{os.getpid()}"
        )
        self.poll_s = poll_s
        self.sigkill_after = sigkill_after
        self.executed = 0
        self.shards_completed = 0

    def _note(self, message: str) -> None:
        print(f"fabric worker {self.worker_id}: {message}", file=sys.stderr, flush=True)

    def note_execution(self) -> None:
        """Called by the shard runner after every *simulated* flow."""
        self.executed += 1
        if self.sigkill_after is not None and self.executed >= self.sigkill_after:
            # The chaos hook: die the hard way, mid-shard, with the
            # lease unreturned — exactly what a OOM-killed or
            # power-cycled worker looks like to the coordinator.
            self._note(
                f"chaos: SIGKILL self after {self.executed} executions"
            )
            os.kill(os.getpid(), signal.SIGKILL)

    # -- shard execution -----------------------------------------------

    def _open_store(self, ref: Optional[str]):
        if not ref:
            return None
        from repro.store.remote import open_store

        return open_store(ref)

    def _run_shard(self, fn: Callable, payloads: List[Tuple], store) -> List[FlowOutcome]:
        runner = _ShardRunner(self)
        if store is None:
            return runner.map(fn, payloads)
        from repro.store.backend import CachedBackend

        return CachedBackend(store, runner).map(fn, payloads)

    @staticmethod
    def _telemetry_delta(outcomes: List[FlowOutcome]) -> Optional[Dict[str, object]]:
        delta: Optional[CampaignTelemetry] = None
        for outcome in outcomes:
            # the fabric maps arbitrary fns; only a FlowOutcome with a
            # result has counters worth streaming
            if not isinstance(outcome, FlowOutcome) or outcome.result is None:
                continue
            if delta is None:
                delta = CampaignTelemetry()
            delta.merge_outcome(outcome)
        return None if delta is None else delta.to_dict()

    # -- the loop ------------------------------------------------------

    def run(self) -> int:
        """Work until the campaign drains; 0 on clean exit."""
        try:
            campaign = self.client.request("GET", "/campaign")
        except OSError as error:
            self._note(f"cannot reach coordinator: {error}")
            return 1
        fn = pickle.loads(base64.b64decode(campaign["fn"]))
        store = self._open_store(campaign.get("store"))
        self._note(
            f"joined campaign {campaign.get('campaign')!r}: "
            f"{campaign.get('total_payloads')} payloads in "
            f"{campaign.get('shards')} shards"
            + (f", store {campaign.get('store')}" if campaign.get("store") else "")
        )
        while True:
            try:
                job = self.client.request(
                    "POST", "/lease", {"worker": self.worker_id}
                )
            except OSError as error:
                # The coordinator is gone: the campaign finished (its
                # driver tore the server down) or died with its driver.
                # Either way there is nothing left to work on.
                self._note(f"coordinator gone ({error}); exiting")
                return 0
            status = job.get("status")
            if status == "done":
                self._note(
                    f"campaign drained; ran {self.executed} flows in "
                    f"{self.shards_completed} shards"
                )
                return 0
            if status == "wait":
                time.sleep(self.poll_s)
                continue
            shard = int(job["shard"])
            epoch = int(job["epoch"])
            payloads: List[Tuple] = pickle.loads(base64.b64decode(job["payloads"]))
            outcomes = self._run_shard(fn, payloads, store)
            completion = {
                "shard": shard,
                "epoch": epoch,
                "worker": self.worker_id,
                "outcomes": base64.b64encode(pickle.dumps(outcomes)).decode("ascii"),
            }
            delta = self._telemetry_delta(outcomes)
            if delta is not None:
                completion["telemetry"] = delta
            try:
                verdict = self.client.request("POST", "/complete", completion)
            except OSError as error:
                self._note(f"coordinator gone mid-completion ({error}); exiting")
                return 0
            self.shards_completed += 1
            if not verdict.get("accepted"):
                # A re-leased shard beat us to it (we were the
                # straggler).  Nothing to do — the work was a pure
                # function and the accepted copy is identical.
                self._note(f"shard {shard} epoch {epoch} superseded; discarded")
