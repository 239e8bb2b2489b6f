"""CachedBackend: partition into hits/misses, store fresh, stay ordered."""

import pickle

import pytest

from repro.exec.executor import Executor, SerialBackend, _execute_payload
from repro.exec.spec import FlowSpec
from repro.hsr import CHINA_MOBILE, hsr_scenario
from repro.robustness.campaign import RetryPolicy
from repro.simulator.connection import ConnectionConfig
from repro.store import CachedBackend, ResultStore, flow_key
from repro.telemetry import CampaignTelemetry
from repro.traces.events import FlowMetadata


class CountingBackend:
    """SerialBackend that records how many payloads it actually ran."""

    name = "counting"

    def __init__(self):
        self.calls = []

    def map(self, fn, items, progress=None):
        self.calls.append(len(list(items)))
        return SerialBackend().map(fn, items, progress)

    @property
    def total(self):
        return sum(self.calls)


def _payloads(n, metadata=False):
    payloads = []
    for i in range(n):
        md = None
        if metadata:
            md = FlowMetadata(
                flow_id=f"b/{i}", provider="CM", technology="LTE",
                scenario="hsr", capture_month="2015-01",
                phone_model="Note 3", duration=3.0, seed=50 + i,
            )
        spec = FlowSpec(
            scenario=hsr_scenario(CHINA_MOBILE), duration=3.0, seed=50 + i,
            flow_id=f"b/{i}", metadata=md,
        )
        payloads.append((i, spec, RetryPolicy()))
    return payloads


class TestPartition:
    def test_cold_then_warm(self, tmp_path):
        inner = CountingBackend()
        backend = CachedBackend(tmp_path / "store", inner)
        payloads = _payloads(3)
        cold = backend.map(_execute_payload, payloads)
        assert inner.total == 3
        assert backend.last_stats == {
            "items": 3, "hits": 0, "misses": 3, "corrupt": 0, "uncacheable": 0,
            "errors": 0,
        }
        warm = backend.map(_execute_payload, payloads)
        assert inner.total == 3  # nothing new simulated
        assert backend.last_stats["hits"] == 3
        assert [o.cache_state for o in cold] == ["miss"] * 3
        assert [o.cache_state for o in warm] == ["hit"] * 3
        for fresh, cached in zip(cold, warm):
            assert pickle.dumps(fresh.result.log) == pickle.dumps(cached.result.log)
            assert fresh.result.duration == cached.result.duration

    def test_partial_hit_merges_in_order(self, tmp_path):
        inner = CountingBackend()
        backend = CachedBackend(tmp_path / "store", inner)
        payloads = _payloads(4)
        backend.map(_execute_payload, payloads[1:3])  # warm the middle two
        outcomes = backend.map(_execute_payload, payloads)
        assert inner.calls == [2, 2]
        assert [o.cache_state for o in outcomes] == ["miss", "hit", "hit", "miss"]
        assert [o.index for o in outcomes] == [0, 1, 2, 3]
        assert [o.spec.flow_id for o in outcomes] == [f"b/{i}" for i in range(4)]

    def test_refresh_recomputes_but_rewrites(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        inner = CountingBackend()
        CachedBackend(store, inner).map(_execute_payload, _payloads(2))
        refresher = CachedBackend(store, inner, refresh=True)
        outcomes = refresher.map(_execute_payload, _payloads(2))
        assert inner.total == 4  # all recomputed
        assert refresher.last_stats["hits"] == 0
        assert [o.cache_state for o in outcomes] == ["miss", "miss"]
        assert store.verify() == (2, [])  # entries still present and sound

    def test_uncacheable_runs_fresh_every_time(self, tmp_path):
        inner = CountingBackend()
        backend = CachedBackend(tmp_path / "store", inner)
        hooked = hsr_scenario(CHINA_MOBILE).with_channel_hook(
            lambda built, seed: built
        )
        payloads = [(0, FlowSpec(scenario=hooked, duration=3.0, seed=5), RetryPolicy())]
        backend.map(_execute_payload, payloads)
        backend.map(_execute_payload, payloads)
        assert inner.total == 2
        assert backend.last_stats["uncacheable"] == 1
        assert backend.store.stats().entries == 0

    def test_corrupt_entry_recomputed_and_counted(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        inner = CountingBackend()
        backend = CachedBackend(store, inner)
        payloads = _payloads(1)
        backend.map(_execute_payload, payloads)
        key = flow_key(payloads[0][1])
        store.path_for(key).write_bytes(b"garbage")
        outcomes = backend.map(_execute_payload, payloads)
        assert inner.total == 2
        assert backend.last_stats["corrupt"] == 1
        assert outcomes[0].cache_state == "corrupt"
        # the damaged entry went to quarantine and was re-stored cleanly
        assert (store.root / "quarantine").is_dir()
        assert store.verify() == (1, [])

    def test_quarantined_outcomes_not_stored(self, tmp_path):
        backend = CachedBackend(tmp_path / "store")
        spec = FlowSpec(
            config=ConnectionConfig(duration=2.0), seed=1, cc="missing-variant"
        )
        outcomes = backend.map(
            _execute_payload, [(0, spec, RetryPolicy(max_retries=0))]
        )
        assert not outcomes[0].ok
        assert backend.store.stats().entries == 0

    def test_hits_restore_traces(self, tmp_path):
        backend = CachedBackend(tmp_path / "store")
        payloads = _payloads(2, metadata=True)
        cold = backend.map(_execute_payload, payloads)
        warm = backend.map(_execute_payload, payloads)
        for fresh, cached in zip(cold, warm):
            assert cached.trace is not None
            assert pickle.dumps(fresh.trace) == pickle.dumps(cached.trace)

    def test_telemetry_counters_tell_the_truth(self, tmp_path):
        backend = CachedBackend(tmp_path / "store")
        payloads = _payloads(1)
        (cold,) = backend.map(_execute_payload, payloads)
        (warm,) = backend.map(_execute_payload, payloads)

        def counters(outcome):
            campaign = CampaignTelemetry()
            campaign.merge_outcome(outcome)
            return campaign.counters

        cold_counters, warm_counters = counters(cold), counters(warm)
        assert (cold_counters["cache_miss"], cold_counters["cache_hit"]) == (1, 0)
        assert (warm_counters["cache_miss"], warm_counters["cache_hit"]) == (0, 1)
        # the simulation counters themselves are identical, the ones the
        # log cannot hold included: the entry stores them
        strip = lambda c: {k: v for k, v in c.items() if not k.startswith("cache_")}
        assert strip(cold_counters) == strip(warm_counters)
        assert warm_counters["events_fired"] > 0 and warm_counters["rto_armed"] > 0


class TestExecutorIntegration:
    def test_report_counts_hits_and_misses(self, tmp_path):
        from repro.store.scope import store_scope

        specs = [payload[1] for payload in _payloads(3)]
        with store_scope(tmp_path / "store"):
            cold = Executor().run(specs)
            warm = Executor().run(specs)
        assert (cold.report.cache_hits, cold.report.cache_misses) == (0, 3)
        assert (warm.report.cache_hits, warm.report.cache_misses) == (3, 0)
        assert warm.report.cache_summary() == "3 cached, 0 fresh"
        # cache accounting never leaks into the serialised report
        assert cold.report.to_json() == warm.report.to_json()
        assert "cache" not in cold.report.to_json()

    def test_explicit_cached_backend_not_rewrapped(self, tmp_path):
        from repro.store.scope import store_scope

        backend = CachedBackend(tmp_path / "store")
        executor = Executor(backend=backend)
        with store_scope(tmp_path / "other"):
            executor.run([payload[1] for payload in _payloads(1)])
        assert backend.last_stats is not None  # the explicit wrap ran
        assert ResultStore(tmp_path / "other").stats().entries == 0

    def test_no_store_means_no_cache_state(self, tmp_path):
        result = Executor().run([payload[1] for payload in _payloads(1)])
        assert result.outcomes[0].cache_state is None
        assert result.report.cache_summary() == ""
