"""Regression: chaos campaigns are cacheable (satellite of the
scenario-document refactor).

Attaching a :class:`FaultPlan` used to wrap the scenario in an opaque
bound-method hook, so every faulted spec failed content-hashing and
silently bypassed the result store — a ``--chaos`` rerun recomputed
everything.  ``with_faults`` now attaches the plan declaratively as a
``"faults"`` :class:`HookSpec`, so faulted flows hash, store, and hit
the warm cache exactly like clean ones.
"""

from repro.context import run_context
from repro.exec.executor import Executor
from repro.exec.spec import FlowSpec
from repro.hsr import CHINA_MOBILE, hsr_scenario
from repro.robustness.faults import FaultPlan, with_faults
from repro.store import ResultStore, flow_key


def _chaos_specs(n=3):
    scenario = with_faults(hsr_scenario(CHINA_MOBILE), FaultPlan.aggressive())
    return [
        FlowSpec(
            scenario=scenario, duration=3.0, seed=70 + i, flow_id=f"chaos/{i}",
        )
        for i in range(n)
    ]


class TestChaosCaching:
    def test_faulted_spec_is_hashable(self):
        (spec,) = _chaos_specs(1)
        key = flow_key(spec)
        assert key is not None
        # The plan's parameters are part of the identity: a different
        # intensity must map to a different store entry.
        other = spec.with_(
            scenario=with_faults(
                hsr_scenario(CHINA_MOBILE), FaultPlan.aggressive(2.0)
            )
        )
        assert flow_key(other) != key

    def test_chaos_rerun_hits_warm_cache(self, tmp_path, simulated):
        store = ResultStore(tmp_path / "store")
        specs = _chaos_specs(3)
        with run_context(store=store):
            cold = Executor().run(specs)
            assert [o.cache_state for o in cold.outcomes] == ["miss"] * 3
            assert store.stats().entries == 3  # every faulted flow hashed
            warm = Executor().run(specs)
        assert simulated == [3]  # the rerun simulated nothing
        assert [o.cache_state for o in warm.outcomes] == ["hit"] * 3
        report = warm.report
        assert (report.cache_hits, report.cache_misses) == (3, 0)
        assert (report.cache_corrupt, report.cache_errors) == (0, 0)

    def test_clean_and_faulted_entries_are_distinct(self, tmp_path):
        clean = FlowSpec(
            scenario=hsr_scenario(CHINA_MOBILE), duration=3.0, seed=70,
            flow_id="chaos/0",
        )
        with run_context(store=tmp_path / "store"):
            Executor().run(_chaos_specs(1))
            outcomes = Executor().run([clean]).outcomes
        assert [o.cache_state for o in outcomes] == ["miss"]
