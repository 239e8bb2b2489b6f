"""The fabric worker: claim a lease, run the shard, post it back.

A worker is a pure executor and owns nothing: all it needs is the
coordinator URL, on any host.  It learns the campaign's map function
from ``GET /campaign``, then loops *claim → execute → complete* until
the coordinator says the campaign is drained.  Results, store traffic,
telemetry and fault scheduling all belong to the campaign driver;
everything that makes the fabric deterministic lives there too — specs
carry their own seeds, the lease table arbitrates duplicates — so a
worker can be SIGKILLed at any instruction and the campaign still
converges to the same bytes: its leased shard expires, another worker
re-runs it, and the re-run is a pure function of the specs.  The price
of owning nothing: a worker killed mid-shard banks none of the flows it
had already finished, so up to ``shard_size - 1`` flows are simulated
twice.

Each lease carries one chaos action per payload (all ``None`` outside
chaos drills), scheduled by the driver's supervisor and applied here
through the same trampoline the process pool uses
(:func:`~repro.exec.supervise._supervised_call`): ``("crash",)`` exits
the worker right before that flow, ``("hang", s)`` stalls it past its
lease, and ``("raise", message)`` ends it with the injected error.
"""

from __future__ import annotations

import base64
import os
import pickle
import socket
import sys
import time
from typing import List, Optional, Tuple

from repro.exec.supervise import _supervised_call
from repro.store.remote import _Transport

__all__ = ["FabricWorker"]


class FabricWorker:
    """One claim → execute → complete loop against a coordinator."""

    def __init__(
        self,
        coordinator_url: str,
        *,
        worker_id: Optional[str] = None,
        poll_s: float = 0.2,
    ) -> None:
        self.transport = _Transport(coordinator_url)
        self.worker_id = (
            worker_id
            if worker_id
            else f"{socket.gethostname()}-{os.getpid()}"
        )
        self.poll_s = poll_s
        self.executed = 0
        self.shards_completed = 0

    def _note(self, message: str) -> None:
        print(f"fabric worker {self.worker_id}: {message}", file=sys.stderr, flush=True)

    def run(self) -> int:
        """Work until the campaign drains; 0 on clean exit."""
        try:
            campaign = self.transport.request_json("GET", "/campaign")
        except OSError as error:
            self._note(f"cannot reach coordinator: {error}")
            return 1
        fn = pickle.loads(base64.b64decode(campaign["fn"]))
        self._note(
            f"joined campaign {campaign.get('campaign')!r}: "
            f"{campaign.get('total_payloads')} payloads in "
            f"{campaign.get('shards')} shards"
        )
        while True:
            try:
                job = self.transport.request_json(
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
            outcomes = []
            for payload, action in zip(payloads, job["actions"]):
                outcomes.append(_supervised_call(fn, payload, action))
                self.executed += 1
            completion = {
                "shard": shard,
                "epoch": epoch,
                "worker": self.worker_id,
                "outcomes": base64.b64encode(pickle.dumps(outcomes)).decode("ascii"),
            }
            try:
                verdict = self.transport.request_json(
                    "POST", "/complete", completion
                )
            except OSError as error:
                self._note(f"coordinator gone mid-completion ({error}); exiting")
                return 0
            self.shards_completed += 1
            if not verdict.get("accepted"):
                # A re-leased shard beat us to it (we were the
                # straggler).  Nothing to do — the work was a pure
                # function and the accepted copy is identical.
                self._note(f"shard {shard} epoch {epoch} superseded; discarded")
