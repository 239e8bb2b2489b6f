"""The chaos determinism gate.

A seeded :class:`ChaosPlan` that kills at least one worker and hangs at
least one flow past its deadline, in a campaign that also reads one
rotten store shard (the gate truncates it on disk before the run),
must leave the campaign *complete* — every flow eventually succeeds —
and two runs of the same chaotic campaign must produce byte-identical
:meth:`CampaignReport.to_json` output.  This is the contract that makes
a degraded run debuggable: chaos is data, not noise.
"""

import pytest

from repro.exec import Executor, ProcessPoolBackend
from repro.exec.chaos import ChaosPlan
from repro.exec.spec import FlowSpec
from repro.exec.supervise import SupervisedBackend, SupervisorPolicy
from repro.hsr import CHINA_MOBILE, hsr_scenario
from repro.store import ResultStore, flow_key
from repro.store.scope import store_scope
from repro.util.errors import ConfigurationError
from tests.store.entries import rot_entry

FLOW_IDS = [f"f/{i}" for i in range(6)]


def specs():
    return [
        FlowSpec(
            scenario=hsr_scenario(CHINA_MOBILE), duration=3.0, seed=50 + i,
            flow_id=flow_id,
        )
        for i, flow_id in enumerate(FLOW_IDS)
    ]


class TestChaosPlan:
    def test_sample_is_deterministic(self):
        a = ChaosPlan.sample(7, FLOW_IDS, crashes=1, hangs=1, raises=1)
        b = ChaosPlan.sample(7, FLOW_IDS, crashes=1, hangs=1, raises=1)
        assert a == b

    def test_sample_pools_are_disjoint(self):
        plan = ChaosPlan.sample(7, FLOW_IDS, crashes=2, hangs=2, raises=2)
        pools = [set(plan.crash), set(plan.hang), set(plan.raise_)]
        union = set().union(*pools)
        assert len(union) == sum(len(pool) for pool in pools) == 6

    def test_sample_rejects_too_many_victims(self):
        with pytest.raises(ConfigurationError):
            ChaosPlan.sample(7, FLOW_IDS[:2], crashes=2, hangs=1)

    def test_overlapping_actions_rejected(self):
        with pytest.raises(ConfigurationError):
            ChaosPlan(crash={"f/0": (0,)}, hang={"f/0": (0,)})

    def test_action_for_fires_once(self):
        plan = ChaosPlan(crash={"f/0": (0,)}, hang={"f/1": (1,)}, hang_s=5.0)
        assert plan.action_for("f/0", 0) == ("crash",)
        assert plan.action_for("f/0", 1) is None
        assert plan.action_for("f/1", 0) is None
        assert plan.action_for("f/1", 1) == ("hang", 5.0)
        assert plan.action_for("f/2", 0) is None

    def test_needs_pool(self):
        assert ChaosPlan(crash={"f/0": (0,)}).needs_pool
        assert ChaosPlan(hang={"f/0": (0,)}).needs_pool
        assert ChaosPlan(raise_={"f/0": (0,)}).needs_pool
        assert not ChaosPlan().needs_pool

    def test_summary_counts(self):
        plan = ChaosPlan.sample(7, FLOW_IDS, crashes=1, hangs=1, raises=1)
        assert plan.summary() == (
            "chaos plan: 1 crashes, 1 hangs (30s), 1 raises"
        )


class TestDeterminismGate:
    """The acceptance criterion, verbatim."""

    def _run_chaotic(self, store_root):
        plan = ChaosPlan.sample(7, FLOW_IDS, crashes=1, hangs=1, hang_s=30.0)
        # Warm one flow the plan leaves alone and rot its shard, so the
        # campaign reads a corrupt entry; the crash/hang victims must
        # stay cold or the cache would serve them before the supervisor
        # ever sees them.
        batch = specs()
        victim = next(
            s for s in batch
            if s.flow_id not in plan.crash and s.flow_id not in plan.hang
        )
        with store_scope(store_root):
            Executor().run([victim])
            rot_entry(ResultStore(store_root), flow_key(victim))
            backend = SupervisedBackend(
                ProcessPoolBackend(2),
                policy=SupervisorPolicy(deadline_s=2.0, chaos=plan),
            )
            result = Executor(backend=backend).run(batch)
        return plan, result

    def test_chaotic_campaign_completes_and_replays_byte_identically(
        self, tmp_path
    ):
        plan, first = self._run_chaotic(tmp_path / "a")
        _, second = self._run_chaotic(tmp_path / "b")

        # the plan really did both kinds of damage
        assert plan.crash and plan.hang
        classes = {f.failure_class for f in first.report.failures}
        assert {"worker_crash", "deadline"} <= classes

        # ...and the campaign still completed, with the damage repaired
        report = first.report
        assert report.attempted == len(FLOW_IDS)
        assert report.succeeded == len(FLOW_IDS)
        assert report.quarantined == 0
        assert not report.interrupted
        assert report.cache_corrupt == 1  # the rotten shard, recomputed
        store = ResultStore(tmp_path / "a")
        assert store.verify()[1] == []  # re-stored cleanly

        # the gate: two runs, byte-identical report JSON
        assert first.report.to_json() == second.report.to_json()
