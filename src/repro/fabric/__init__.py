"""repro.fabric: the distributed campaign fabric.

Any number of worker processes — on one or many hosts — join, leave,
and resume a single campaign, and the final report is byte-identical
to a serial run regardless of topology.  Three pieces make that true:

* :class:`~repro.fabric.shard.ShardPlan` /
  :class:`~repro.fabric.shard.LeaseTable` — the batch is planned into
  shards by each spec's content hash (the same
  :func:`~repro.store.keys.flow_key` that addresses its result in the
  store), and shards are leased out under epochs: a re-leased shard's
  stale completion is rejected whole, so dead workers and stragglers
  can never double-count a flow.

* :class:`~repro.fabric.coordinator.CampaignCoordinator` /
  :class:`~repro.fabric.worker.FabricWorker` — a lease server in the
  driver process and a stateless claim → execute → complete loop in
  each worker (``python -m repro.fabric work``), which needs nothing
  but the coordinator URL.  Workers post each completed shard's
  outcomes back; the coordinator keys them by payload position, so the
  executor's spec-order merge is untouched, and derives its live
  ``/progress`` telemetry from those same outcomes.

* :class:`FabricBackend` — the executor backend behind
  ``Executor.for_workers("fabric")`` and the CLI's ``--workers
  fabric``: it stands up a coordinator, spawns local workers (and
  respawns dead ones), and returns outcomes in batch order.  The
  driver is the only owner of results: with ``--store`` its cache
  partition serves hits before the batch reaches the fabric and writes
  every returned flow back, so a warm rerun simulates nothing.  A
  worker killed mid-shard banks nothing; its shard re-runs whole, so
  at most ``shard_size - 1`` flows are simulated twice.

``python -m repro.fabric`` offers ``serve`` / ``work`` / ``run`` over
the paper's Table-I campaign; :func:`fabric_scope` is the ambient
configuration every executor-driven experiment picks up.
"""

from repro.fabric.backend import (
    FabricBackend,
    FabricConfig,
    current_fabric_config,
    fabric_scope,
)
from repro.fabric.coordinator import CampaignCoordinator
from repro.fabric.shard import Lease, LeaseTable, ShardPlan, shard_key_for_payload
from repro.fabric.worker import FabricWorker

__all__ = [
    "CampaignCoordinator",
    "FabricBackend",
    "FabricConfig",
    "FabricWorker",
    "Lease",
    "LeaseTable",
    "ShardPlan",
    "current_fabric_config",
    "fabric_scope",
    "shard_key_for_payload",
]
