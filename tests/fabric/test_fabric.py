"""Coordinator, worker, and FabricBackend end to end on localhost.

The fabric's acceptance bar is the executor's: outcomes in batch
order, reports byte-identical to serial, however the work was sharded
or which worker ran it.  These tests run real HTTP over the loopback
— an in-process worker loop against a served coordinator, and the
full backend with spawned worker subprocesses.
"""

import pickle
import time

import pytest

from repro.exec import Executor, FlowSpec
from repro.exec.executor import _execute_payload
from repro.fabric import (
    CampaignCoordinator,
    FabricBackend,
    FabricConfig,
    FabricWorker,
    current_fabric_config,
    fabric_scope,
)
from repro.hsr import CHINA_MOBILE, CHINA_TELECOM, hsr_scenario
from repro.robustness.campaign import RetryPolicy
from repro.store import ResultStore, store_scope
from repro.store.remote import _Transport
from repro.telemetry.campaign import CampaignTelemetry
from repro.util.errors import ChaosError, ConfigurationError


def _specs(n=4, duration=3.0):
    return [
        FlowSpec(
            scenario=hsr_scenario(CHINA_MOBILE if i % 2 else CHINA_TELECOM),
            duration=duration,
            seed=900 + i,
            cc="newreno" if i % 2 else "reno",
            flow_id=f"fabric/{i}",
        )
        for i in range(n)
    ]


def _double(payload):
    """A picklable-by-reference map function for coordinator tests."""
    index, value = payload
    return (index, value * 2)


class TestCoordinatorAndWorker:
    def test_in_process_worker_drains_the_campaign(self):
        payloads = [(i, i + 10) for i in range(7)]
        coordinator = CampaignCoordinator(_double, payloads, shard_size=2)
        with coordinator.serving() as url:
            worker = FabricWorker(url, worker_id="t1", poll_s=0.01)
            assert worker.run() == 0
            results = coordinator.wait(timeout_s=5.0)
        assert results == [(i, (i + 10) * 2) for i in range(7)]
        assert worker.executed == 7
        info = coordinator.progress_info()
        assert info["completed"] == 7
        assert info["workers_seen"] == ["t1"]
        assert info["completions_rejected"] == 0

    def test_second_worker_joins_a_drained_campaign_cleanly(self):
        coordinator = CampaignCoordinator(_double, [(0, 1)], shard_size=4)
        with coordinator.serving() as url:
            assert FabricWorker(url, worker_id="a", poll_s=0.01).run() == 0
            late = FabricWorker(url, worker_id="b", poll_s=0.01)
            assert late.run() == 0  # sees "done", exits clean
            assert late.executed == 0

    def test_worker_against_a_dead_coordinator_exits_nonzero(self):
        coordinator = CampaignCoordinator(_double, [(0, 1)])
        with coordinator.serving() as url:
            pass  # server torn down; url now points at nothing
        worker = FabricWorker(url, worker_id="orphan", poll_s=0.01)
        assert worker.run() == 1

    def test_lease_carries_actions_keyed_on_the_execution_index(self):
        """The chaos schedule rides inside the lease: one action per
        payload, asked for at execution ``epoch - 1``, so the re-lease
        of a crashed shard runs its flows' next execution."""
        asked = []

        def action_for(payload, execution):
            asked.append((payload[0], execution))
            return ("crash",) if (payload[0], execution) == (1, 0) else None

        payloads = [(0, 10), (1, 11)]
        coordinator = CampaignCoordinator(
            _double, payloads, shard_size=2, lease_timeout_s=0.01,
            action_for=action_for,
        )
        first = coordinator.lease("a")
        assert first["epoch"] == 1
        assert first["actions"] == [None, ("crash",)]
        time.sleep(0.02)  # the lease expires unreturned, as after a crash
        second = coordinator.lease("b")
        assert second["epoch"] == 2
        assert second["actions"] == [None, None]
        assert asked == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_worker_applies_leased_actions_through_the_trampoline(self):
        coordinator = CampaignCoordinator(
            _double, [(0, 1), (1, 2)], shard_size=2,
            action_for=lambda payload, execution: (
                ("raise", "boom") if payload[0] == 1 else None
            ),
        )
        with coordinator.serving() as url:
            worker = FabricWorker(url, worker_id="victim", poll_s=0.01)
            with pytest.raises(ChaosError, match="boom"):
                worker.run()
        assert worker.executed == 1  # the flow before the victim ran

    def test_progress_telemetry_is_derived_from_accepted_outcomes(self):
        specs = _specs(2, duration=2.0)
        payloads = [(i, spec, RetryPolicy()) for i, spec in enumerate(specs)]
        coordinator = CampaignCoordinator(_execute_payload, payloads, shard_size=4)
        with coordinator.serving() as url:
            assert FabricWorker(url, worker_id="t", poll_s=0.01).run() == 0
            outcomes = coordinator.wait(timeout_s=30.0)
            progress = _Transport(url).request_json("GET", "/progress")
        expected = CampaignTelemetry()
        for outcome in outcomes:
            expected.merge_outcome(outcome)
        assert progress["telemetry"] == expected.to_dict()
        assert progress["telemetry"]["flows"] == 2

    def test_progress_requests_do_not_stall(self):
        """Fifty sequential ``GET /progress`` over one kept connection.
        A handler that leaves Nagle on stalls each response ~40 ms on
        the client's delayed ACK (about 2 s in all)."""
        coordinator = CampaignCoordinator(_double, [(0, 1)])
        with coordinator.serving() as url:
            transport = _Transport(url)
            transport.request_json("GET", "/progress")  # connect
            start = time.perf_counter()
            for _ in range(50):
                transport.request_json("GET", "/progress")
            elapsed = time.perf_counter() - start
            transport.close()
        assert elapsed < 0.5, f"50 /progress requests took {elapsed:.2f}s"

    def test_wait_timeout_raises(self):
        coordinator = CampaignCoordinator(_double, [(0, 1)])
        with pytest.raises(TimeoutError):
            coordinator.wait(poll_s=0.01, timeout_s=0.05)


class TestFabricBackend:
    def test_backend_matches_serial_byte_for_byte(self):
        specs = _specs()
        serial = Executor.for_workers(1).run(specs)
        fabric = Executor.for_workers("fabric")
        config = FabricConfig(workers=2, shard_size=2, poll_s=0.02)
        with fabric_scope(config):
            distributed = fabric.run(specs)
        assert distributed.report.to_json() == serial.report.to_json()
        for left, right in zip(serial.outcomes, distributed.outcomes):
            assert pickle.dumps(left.result.log) == pickle.dumps(right.result.log)
        backend = fabric.backend  # the FabricBackend itself
        assert backend.last_stats["items"] == len(specs)
        assert backend.last_stats["workers_spawned"] == 2
        assert backend.last_stats["restarts"] == 0

    def test_store_backed_fabric_warm_rerun_spawns_nothing(self, tmp_path):
        specs = _specs(3)
        store = ResultStore(tmp_path / "store")
        config = FabricConfig(workers=1, shard_size=2)
        serial = Executor.for_workers(1).run(specs)
        with fabric_scope(config), store_scope(store):
            cold = Executor.for_workers("fabric").run(specs)
        assert cold.report.cache_misses == len(specs)
        assert store.stats().entries == len(specs)
        with fabric_scope(config), store_scope(store):
            executor = Executor.for_workers("fabric")
            warm = executor.run(specs)
        assert warm.report.cache_hits == len(specs)
        # the all-hits batch never reaches the fabric at all: the cache
        # partition serves everything, no coordinator, no processes
        assert executor.backend.last_stats is None
        assert warm.report.to_json() == serial.report.to_json()

    def test_empty_batch_short_circuits(self):
        backend = FabricBackend(FabricConfig(workers=2))
        assert backend.map(_double, []) == []
        assert backend.last_stats["workers_spawned"] == 0

    def test_backend_is_self_supervising(self):
        assert FabricBackend.self_supervising is True
        executor = Executor.for_workers("fabric")
        assert executor.backend.name == "fabric"

    def test_unknown_worker_spelling_mentions_fabric(self):
        with pytest.raises(ConfigurationError, match="fabric"):
            Executor.for_workers("cluster")


class TestFabricConfig:
    def test_scope_installs_and_restores(self):
        config = FabricConfig(workers=3)
        assert current_fabric_config() is None
        with fabric_scope(config):
            assert current_fabric_config() is config
            with fabric_scope(None):  # None is a pass-through, not a reset
                assert current_fabric_config() is config
        assert current_fabric_config() is None

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FabricConfig(workers=-1)
        with pytest.raises(ConfigurationError):
            FabricConfig(max_worker_restarts=-1)
        with pytest.raises(ConfigurationError):
            FabricConfig(poll_s=0.0)
