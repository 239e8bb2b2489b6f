"""The run context: one ambient value for every campaign-wide setting."""

import pytest

from repro.context import RunContext, current_run_context, run_context
from repro.exec import Executor, FlowSpec, SupervisedBackend, SupervisorPolicy
from repro.robustness.faults import FaultPlan
from repro.robustness.watchdog import Watchdog
from repro.simulator.connection import ConnectionConfig
from repro.store import RemoteStore, ResultStore
from repro.telemetry import CampaignTelemetry

#: one non-default value per field that ``None`` clears
FIELD_VALUES = {
    "store": lambda tmp_path: ResultStore(tmp_path),
    "supervisor": lambda tmp_path: SupervisorPolicy(deadline_s=5.0),
    "watchdog": lambda tmp_path: Watchdog(max_events=100),
    "faults": lambda tmp_path: FaultPlan.aggressive(),
    "telemetry": lambda tmp_path: CampaignTelemetry(),
}


def _spec(seed=0):
    return FlowSpec(
        config=ConnectionConfig(duration=2.0, wmax=16.0),
        seed=seed,
        flow_id=f"flow/{seed}",
    )


class TestRunContext:
    def test_default_when_nothing_is_installed(self):
        assert current_run_context() == RunContext()

    @pytest.mark.parametrize("name", sorted(FIELD_VALUES))
    def test_none_clears_the_outer_value(self, name, tmp_path):
        value = FIELD_VALUES[name](tmp_path)
        with run_context(**{name: value}):
            with run_context(**{name: None}):
                assert getattr(current_run_context(), name) is None
            assert getattr(current_run_context(), name) is value
        assert current_run_context() == RunContext()

    def test_unnamed_fields_inherit(self):
        watchdog = Watchdog(max_events=100)
        with run_context(watchdog=watchdog, progress=True):
            with run_context(refresh=True) as inner:
                assert inner is current_run_context()
                assert inner.watchdog is watchdog
                assert inner.progress and inner.refresh

    def test_store_references_are_opened(self, tmp_path):
        with run_context(store=str(tmp_path)) as context:
            assert isinstance(context.store, ResultStore)
            assert context.store.root == tmp_path
        with run_context(store="http://127.0.0.1:9") as context:
            assert isinstance(context.store, RemoteStore)

    def test_unknown_field_is_rejected(self):
        with pytest.raises(TypeError):
            with run_context(pool=2):
                pass


class TestNesting:
    def test_inner_store_keeps_outer_watchdog_supervisor_and_aggregate(
        self, tmp_path, monkeypatch
    ):
        policies = []
        real_map = SupervisedBackend.map

        def spy(self, *args, **kwargs):
            policies.append(self.policy)
            return real_map(self, *args, **kwargs)

        monkeypatch.setattr(SupervisedBackend, "map", spy)
        watchdog = Watchdog(max_events=10_000_000)
        policy = SupervisorPolicy(max_worker_restarts=3)
        aggregate = CampaignTelemetry()
        with run_context(watchdog=watchdog, supervisor=policy, telemetry=aggregate):
            with run_context(store=tmp_path):
                cold = Executor().run([_spec()])
                warm = Executor().run([_spec()])
        assert cold.outcomes[0].spec.watchdog == watchdog
        assert policies == [policy]  # the warm rerun supervises nothing
        assert (cold.report.cache_misses, warm.report.cache_hits) == (1, 1)
        assert aggregate.flows == 2

