"""The store stages of Executor.run: partition into hits/misses, store
fresh, stay ordered."""

import pickle

from repro.context import run_context
from repro.exec.executor import Executor
from repro.exec.spec import FlowSpec
from repro.hsr import CHINA_MOBILE, hsr_scenario
from repro.robustness.campaign import RetryPolicy
from repro.simulator.connection import ConnectionConfig
from repro.store import ResultStore, flow_key
from repro.telemetry import CampaignTelemetry
from repro.traces.events import FlowMetadata


def _specs(n, metadata=False):
    specs = []
    for i in range(n):
        md = None
        if metadata:
            md = FlowMetadata(
                flow_id=f"b/{i}", provider="CM", technology="LTE",
                scenario="hsr", capture_month="2015-01",
                phone_model="Note 3", duration=3.0, seed=50 + i,
            )
        specs.append(
            FlowSpec(
                scenario=hsr_scenario(CHINA_MOBILE), duration=3.0, seed=50 + i,
                flow_id=f"b/{i}", metadata=md,
            )
        )
    return specs


def _run(store, specs, *, refresh=False, executor=None):
    with run_context(store=store, refresh=refresh):
        return (executor or Executor()).run(specs)


def _cache_counts(report):
    return (
        report.cache_hits, report.cache_misses, report.cache_corrupt,
        report.cache_errors,
    )


class TestPartition:
    def test_cold_then_warm(self, tmp_path, simulated):
        store = tmp_path / "store"
        specs = _specs(3)
        cold = _run(store, specs)
        assert simulated == [3]
        assert _cache_counts(cold.report) == (0, 3, 0, 0)
        warm = _run(store, specs)
        assert simulated == [3]  # nothing new simulated
        assert _cache_counts(warm.report) == (3, 0, 0, 0)
        assert [o.cache_state for o in cold.outcomes] == ["miss"] * 3
        assert [o.cache_state for o in warm.outcomes] == ["hit"] * 3
        for fresh, cached in zip(cold.outcomes, warm.outcomes):
            assert pickle.dumps(fresh.result.log) == pickle.dumps(cached.result.log)
            assert fresh.result.duration == cached.result.duration

    def test_partial_hit_merges_in_order(self, tmp_path, simulated):
        store = tmp_path / "store"
        specs = _specs(4)
        _run(store, specs[1:3])  # warm the middle two
        outcomes = _run(store, specs).outcomes
        assert simulated == [4]  # two to warm, two fresh
        assert [o.cache_state for o in outcomes] == ["miss", "hit", "hit", "miss"]
        assert [o.index for o in outcomes] == [0, 1, 2, 3]
        assert [o.spec.flow_id for o in outcomes] == [f"b/{i}" for i in range(4)]

    def test_refresh_recomputes_but_rewrites(self, tmp_path, simulated):
        store = ResultStore(tmp_path / "store")
        _run(store, _specs(2))
        refreshed = _run(store, _specs(2), refresh=True)
        assert simulated == [4]  # all recomputed
        assert refreshed.report.cache_hits == 0
        assert [o.cache_state for o in refreshed.outcomes] == ["miss", "miss"]
        assert store.verify() == (2, [])  # entries still present and sound

    def test_uncacheable_runs_fresh_every_time(self, tmp_path, simulated):
        store = ResultStore(tmp_path / "store")
        hooked = hsr_scenario(CHINA_MOBILE).with_channel_hook(
            lambda built, seed: built
        )
        specs = [FlowSpec(scenario=hooked, duration=3.0, seed=5)]
        _run(store, specs)
        again = _run(store, specs)
        assert simulated == [2]
        assert [o.cache_state for o in again.outcomes] == ["miss"]
        assert store.stats().entries == 0

    def test_corrupt_entry_recomputed_and_counted(self, tmp_path, simulated):
        store = ResultStore(tmp_path / "store")
        specs = _specs(1)
        _run(store, specs)
        store.path_for(flow_key(specs[0])).write_bytes(b"garbage")
        result = _run(store, specs)
        assert simulated == [2]
        assert result.report.cache_corrupt == 1
        assert result.outcomes[0].cache_state == "corrupt"
        # the damaged entry went to quarantine and was re-stored cleanly
        assert (store.root / "quarantine").is_dir()
        assert store.verify() == (1, [])

    def test_quarantined_outcomes_not_stored(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = FlowSpec(
            config=ConnectionConfig(duration=2.0), seed=1, cc="missing-variant"
        )
        executor = Executor(retry_policy=RetryPolicy(max_retries=0))
        outcomes = _run(store, [spec], executor=executor).outcomes
        assert not outcomes[0].ok
        assert store.stats().entries == 0

    def test_hits_restore_traces(self, tmp_path):
        store = tmp_path / "store"
        specs = _specs(2, metadata=True)
        cold = _run(store, specs).outcomes
        warm = _run(store, specs).outcomes
        for fresh, cached in zip(cold, warm):
            assert cached.trace is not None
            assert pickle.dumps(fresh.trace) == pickle.dumps(cached.trace)

    def test_telemetry_counters_tell_the_truth(self, tmp_path):
        store = tmp_path / "store"
        specs = _specs(1)
        (cold,) = _run(store, specs).outcomes
        (warm,) = _run(store, specs).outcomes

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
        specs = _specs(3)
        cold = _run(tmp_path / "store", specs)
        warm = _run(tmp_path / "store", specs)
        assert (cold.report.cache_hits, cold.report.cache_misses) == (0, 3)
        assert (warm.report.cache_hits, warm.report.cache_misses) == (3, 0)
        assert warm.report.cache_summary() == "3 cached, 0 fresh"
        # cache accounting never leaks into the serialised report
        assert cold.report.to_json() == warm.report.to_json()
        assert "cache" not in cold.report.to_json()

    def test_no_store_means_no_cache_state(self, tmp_path):
        result = Executor().run(_specs(1))
        assert result.outcomes[0].cache_state is None
        assert result.report.cache_summary() == ""
