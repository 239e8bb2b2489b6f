"""Store behaviour under concurrency and failure.

Two campaigns sharing one store directory must race benignly (atomic
same-key writes, last identical write wins), a truncated entry read
mid-campaign must degrade to quarantine-and-recompute rather than an
exception, and the circuit breaker must fail the store *open* — an
unusable disk degrades a campaign to uncached execution, never aborts
it.
"""

import errno
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import pytest

from repro.context import run_context
from repro.exec.executor import Executor
from repro.exec.spec import FlowSpec
from repro.hsr import CHINA_MOBILE, hsr_scenario
from repro.store import ResultStore, StoreCircuitBreaker, flow_key


def _specs(n):
    return [
        FlowSpec(
            scenario=hsr_scenario(CHINA_MOBILE), duration=3.0, seed=70 + i,
            flow_id=f"c/{i}",
        )
        for i in range(n)
    ]


def _run_store_campaign(store_root):
    """One full store-backed campaign; module-level so spawn can pickle it."""
    with run_context(store=store_root):
        result = Executor().run(_specs(3))
    return result.report.to_json()


def _hammer_same_key(store_root, rounds):
    """Write the same entries over and over (the same-key race arm)."""
    store = ResultStore(store_root)
    spec = _specs(1)[0]
    key = flow_key(spec)
    for _ in range(rounds):
        store.put(key, {"flow_id": spec.flow_id, "round_trip": True})
    return key


class TestConcurrentCampaigns:
    def test_two_processes_share_one_store(self, tmp_path):
        """Two simultaneous campaigns over the same specs and store:
        both complete, reports match, and the store stays sound."""
        root = str(tmp_path / "shared")
        with ProcessPoolExecutor(
            max_workers=2, mp_context=get_context("spawn")
        ) as pool:
            reports = list(pool.map(_run_store_campaign, [root, root]))
        assert reports[0] == reports[1]
        store = ResultStore(root)
        assert store.verify() == (3, [])
        # a third, warm run serves everything from the store
        with run_context(store=root):
            warm = Executor().run(_specs(3))
        assert warm.report.cache_hits == 3
        assert warm.report.to_json() == reports[0]

    def test_same_key_writers_race_benignly(self, tmp_path):
        root = str(tmp_path / "race")
        with ProcessPoolExecutor(
            max_workers=2, mp_context=get_context("spawn")
        ) as pool:
            keys = list(pool.map(_hammer_same_key, [root, root], [50, 50]))
        assert keys[0] == keys[1]
        store = ResultStore(root)
        assert store.verify() == (1, [])  # never a torn entry
        payload = store.load(keys[0])
        assert payload == {"flow_id": "c/0", "round_trip": True}
        # no leaked temp files from either writer
        assert not list(store.root.rglob("*.tmp"))

    def test_threaded_same_key_writers_race_benignly(self, tmp_path):
        """Threads sharing one ResultStore object (the HTTP store
        server's reality) must not interleave on the staging file: the
        tmp name is unique per pid *and* thread *and* write, so the
        loser's rename is a silent no-op, never a torn entry."""
        import threading

        store = ResultStore(tmp_path / "threads")
        spec = _specs(1)[0]
        key = flow_key(spec)
        errors = []

        def hammer():
            try:
                for _ in range(40):
                    store.put(key, {"flow_id": spec.flow_id, "round_trip": True})
            except Exception as error:  # pragma: no cover - the failure arm
                errors.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert store.verify() == (1, [])
        assert store.load(key) == {"flow_id": spec.flow_id, "round_trip": True}
        assert not list(store.root.rglob("*.tmp"))

    def test_remote_clients_race_benignly_through_one_server(self, tmp_path):
        """Concurrent RemoteStore clients PUTting the same key drive
        the threaded server's shared ResultStore from many handler
        threads at once — the end-to-end version of the race above."""
        import threading

        from repro.store import RemoteStore, StoreServer

        spec = _specs(1)[0]
        key = flow_key(spec)
        errors = []
        with StoreServer(tmp_path / "remote") as server:

            def hammer():
                try:
                    client = RemoteStore(server.url)
                    for _ in range(15):
                        client.put(key, {"flow_id": spec.flow_id})
                except Exception as error:  # pragma: no cover - failure arm
                    errors.append(error)

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            store = server.store
        assert errors == []
        assert store.verify() == (1, [])
        assert store.load(key) == {"flow_id": spec.flow_id}
        assert not list(store.root.rglob("*.tmp"))


class TestTruncatedEntryMidCampaign:
    def test_truncated_read_degrades_to_recompute(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        specs = _specs(3)
        with run_context(store=store):
            Executor().run(specs)
            path = store.path_for(flow_key(specs[1]))
            raw = path.read_bytes()
            path.write_bytes(raw[: len(raw) // 2])  # half a gzip frame
            result = Executor().run(specs)  # must not raise
            outcomes = result.outcomes
            assert [o.cache_state for o in outcomes] == ["hit", "corrupt", "hit"]
            assert all(o.ok for o in outcomes)
            assert result.report.cache_corrupt == 1
            # the rotten bytes were quarantined for post-mortem, and the
            # recomputed entry reads cleanly from now on
            assert store.stats().quarantined == 1
            assert store.verify() == (3, [])
            warm = Executor().run(specs).outcomes
        assert [o.cache_state for o in warm] == ["hit"] * 3


class _FailingStore:
    """A store whose configured operations raise OSError."""

    def __init__(self, fail=("get", "put", "quarantine")):
        self.fail = set(fail)
        self.calls = []

    def _maybe_fail(self, op):
        self.calls.append(op)
        if op in self.fail:
            raise OSError(errno.ENOSPC, "no space left on device")

    def get(self, key):
        self._maybe_fail("get")
        return None, False

    def put(self, key, payload):
        self._maybe_fail("put")

    def quarantine(self, key):
        self._maybe_fail("quarantine")


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self, capsys):
        breaker = StoreCircuitBreaker(_FailingStore(), threshold=3)
        for _ in range(3):
            assert breaker.get("k" * 64) == (None, False, True)
        assert breaker.open
        assert breaker.errors == 3
        err = capsys.readouterr().err
        assert "circuit breaker OPEN" in err
        assert "UNCACHED" in err
        assert err.count("circuit breaker OPEN") == 1  # one loud note

    def test_open_circuit_short_circuits(self):
        store = _FailingStore()
        breaker = StoreCircuitBreaker(store, threshold=1)
        breaker.get("k" * 64)
        assert breaker.open
        calls_when_opened = len(store.calls)
        assert breaker.get("k" * 64) == (None, False, True)
        assert breaker.put("k" * 64, {}) is False
        assert breaker.quarantine("k" * 64) is False
        assert len(store.calls) == calls_when_opened  # disk never touched

    def test_success_resets_the_consecutive_count(self):
        store = _FailingStore(fail=("put",))
        breaker = StoreCircuitBreaker(store, threshold=2)
        assert breaker.put("k" * 64, {}) is False  # 1 consecutive
        assert breaker.get("k" * 64) == (None, False, False)  # blip absorbed
        assert breaker.put("k" * 64, {}) is False  # 1 again, not 2
        assert not breaker.open
        assert breaker.errors == 2  # total is monotone regardless

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            StoreCircuitBreaker(_FailingStore(), threshold=0)

    def test_campaign_survives_a_dead_store(self, tmp_path, monkeypatch):
        """End to end: every store op fails, the campaign still completes
        with every flow computed fresh and counted as a store error."""
        real_store = ResultStore(tmp_path / "store")

        def exploding(self, key):
            raise OSError(errno.EIO, "bad disk")

        monkeypatch.setattr(ResultStore, "get", exploding)
        monkeypatch.setattr(
            ResultStore, "put", lambda self, key, payload: exploding(self, key)
        )
        with run_context(store=real_store):
            result = Executor().run(_specs(3))
        assert all(o.ok for o in result.outcomes)
        assert [o.cache_state for o in result.outcomes] == ["error"] * 3
        assert result.report.cache_errors == 3
