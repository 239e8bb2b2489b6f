"""Property: the fabric is byte-identical to serial, even through chaos.

The distributed leg of the determinism suite: a campaign run on the
fabric — workers over HTTP, shards under leases, a remote store behind
the driver — must produce the same report bytes and trace pickles as a
serial run, including when a worker dies mid-shard and a fresh worker
attaches to finish the job.  The death is scheduled, not raced: a
:class:`~repro.exec.chaos.ChaosPlan` crashes one named flow's first
execution, and the coordinator ships that action inside the lease of
whichever worker draws its shard.  Determinism survives because specs
carry their own seeds, the lease table's epoch rule accepts exactly
one completion per shard, and the executor merges outcomes in spec
order regardless of which worker produced them.
"""

import pickle

from repro.exec import Executor, FlowSpec
from repro.exec.chaos import ChaosPlan
from repro.exec.supervise import SupervisedBackend, SupervisorPolicy
from repro.fabric import FabricBackend, FabricConfig, ShardPlan
from repro.hsr import CHINA_MOBILE, CHINA_TELECOM, hsr_scenario
from repro.store import StoreServer, store_scope
from repro.traces.events import FlowMetadata

SHARD_SIZE = 2


def _specs(n=4, duration=3.0):
    specs = []
    for i in range(n):
        flow_id = f"prop-fabric/{i}"
        metadata = FlowMetadata(
            flow_id=flow_id, provider="CM", technology="LTE", scenario="hsr",
            capture_month="2015-01", phone_model="Note 3",
            duration=duration, seed=640 + i,
        )
        specs.append(
            FlowSpec(
                scenario=hsr_scenario(CHINA_MOBILE if i % 2 else CHINA_TELECOM),
                duration=duration,
                seed=640 + i,
                cc="newreno" if i % 2 else "reno",
                flow_id=flow_id,
                metadata=metadata,
            )
        )
    return specs


def _trace_pickles(execution):
    return [pickle.dumps(outcome.result.log) for outcome in execution.outcomes]


def _mid_shard_crash(specs):
    """A plan crashing the first execution of a flow that is not first
    in its shard, so its worker dies with half the shard done."""
    plan = ShardPlan.for_payloads(list(enumerate(specs)), shard_size=SHARD_SIZE)
    shard = next(positions for positions in plan.shards if len(positions) > 1)
    return ChaosPlan(crash={specs[shard[1]].flow_id: (0,)})


def _chaotic_fabric(specs):
    config = FabricConfig(
        workers=2,
        shard_size=SHARD_SIZE,
        poll_s=0.02,
        lease_timeout_s=3.0,
        max_worker_restarts=4,
    )
    fabric = FabricBackend(config)
    policy = SupervisorPolicy(chaos=_mid_shard_crash(specs))
    return Executor(backend=SupervisedBackend(fabric, policy=policy)), fabric


class TestKillAndRejoin:
    def test_crashed_worker_mid_shard_changes_no_bytes(self):
        """Two workers; whichever leases the victim's shard exits right
        before the victim, with the lease unreturned.  The lease
        expires, the respawned worker (the 'fresh worker attaching')
        re-runs the shard, and the epoch rule keeps the dead worker's
        half-done work from ever counting."""
        specs = _specs()
        serial = Executor.for_workers(1).run(specs)
        executor, fabric = _chaotic_fabric(specs)
        chaotic = executor.run(specs)
        assert fabric.last_stats["restarts"] >= 1  # the worker really died
        assert chaotic.report.to_json() == serial.report.to_json()
        assert _trace_pickles(chaotic) == _trace_pickles(serial)

    def test_kill_rejoin_with_remote_store_then_warm_rerun(self, tmp_path):
        """The full acceptance path: HTTP store, a worker crashed
        mid-campaign, byte-identity with serial, and the driver as the
        store's only client (one GET and one PUT per flow) — then a
        warm rerun that serves every flow from the remote store and
        simulates nothing (the cache partition never even engages the
        fabric)."""
        specs = _specs()
        serial = Executor.for_workers(1).run(specs)
        with StoreServer(tmp_path / "store") as server:
            executor, fabric = _chaotic_fabric(specs)
            with store_scope(server.url):
                chaotic = executor.run(specs)
            assert fabric.last_stats["restarts"] >= 1
            assert chaotic.report.to_json() == serial.report.to_json()
            assert _trace_pickles(chaotic) == _trace_pickles(serial)
            assert server.store.stats().entries == len(specs)
            assert server.counters.get("get") == len(specs)
            assert server.counters.get("put") == len(specs)
            warm_executor, warm_fabric = _chaotic_fabric(specs)
            with store_scope(server.url):
                warm = warm_executor.run(specs)
            assert warm.report.cache_hits == len(specs)
            assert warm.report.cache_misses == 0
            assert warm_fabric.last_stats is None  # fabric untouched
            assert warm.report.to_json() == serial.report.to_json()
            assert _trace_pickles(warm) == _trace_pickles(serial)
