"""Campaign telemetry: executor aggregation, backends, ambient scope.

The determinism contract: campaign telemetry is assembled from
wall-clock-free counters, merged in spec order, so its canonical JSON
is byte-identical between serial and process-pool runs.
"""

import io

import pytest

from repro.exec import Executor, FlowSpec
from repro.exec.executor import ProcessPoolBackend, SerialBackend
from repro.simulator.channel import BernoulliLoss
from repro.simulator.connection import ConnectionConfig
from repro.telemetry import (
    CampaignTelemetry,
    CountingTelemetry,
    TelemetryConfig,
    current_telemetry_config,
    telemetry_scope,
)
from repro.util.rng import RngStream


def _spec(seed, duration=6.0):
    return FlowSpec(
        config=ConnectionConfig(duration=duration),
        data_loss=BernoulliLoss(0.02, RngStream(seed, "data")),
        ack_loss=BernoulliLoss(0.01, RngStream(seed, "ack")),
        seed=seed,
        flow_id=f"flow/{seed}",
    )


class TestExecutorAggregation:
    def test_off_by_default(self):
        execution = Executor().run([_spec(0)])
        assert execution.telemetry is None
        assert execution.outcomes[0].result.telemetry is None

    def test_collects_when_enabled(self):
        execution = Executor(telemetry=True).run([_spec(0), _spec(1)])
        campaign = execution.telemetry
        assert campaign is not None
        assert campaign.flows == 2
        assert campaign.get("packets_sent") > 0
        # Per-flow sinks ride on the results.
        for outcome in execution.outcomes:
            assert isinstance(outcome.result.telemetry, CountingTelemetry)

    def test_campaign_is_sum_of_flow_counters(self):
        execution = Executor(telemetry=True).run([_spec(3), _spec(4)])
        total = sum(
            outcome.result.telemetry.packets_sent
            for outcome in execution.outcomes
        )
        assert execution.telemetry.get("packets_sent") == total

    def test_serial_and_pool_json_byte_identical(self):
        specs = [_spec(seed) for seed in range(4)]
        serial = Executor(backend=SerialBackend(), telemetry=True).run(specs)
        pooled = Executor(backend=ProcessPoolBackend(2), telemetry=True).run(specs)
        assert serial.telemetry.to_json() == pooled.telemetry.to_json()

    def test_spec_level_flag_collects_without_executor_flag(self):
        execution = Executor().run([_spec(0).with_(telemetry=True), _spec(1)])
        assert execution.telemetry is not None
        assert execution.telemetry.flows == 1

    def test_explicit_false_overrides_ambient(self):
        with telemetry_scope(TelemetryConfig(collect=True)):
            execution = Executor(telemetry=False).run([_spec(0)])
        assert execution.telemetry is None


class TestAmbientScope:
    def test_scope_installs_and_restores(self):
        assert current_telemetry_config() is None
        config = TelemetryConfig()
        with telemetry_scope(config):
            assert current_telemetry_config() is config
        assert current_telemetry_config() is None

    def test_none_shadows_outer_scope(self):
        with telemetry_scope(TelemetryConfig()):
            with telemetry_scope(None):
                assert current_telemetry_config() is None

    def test_executor_inherits_ambient_collection(self):
        with telemetry_scope(TelemetryConfig(collect=True)):
            execution = Executor().run([_spec(0)])
        assert execution.telemetry is not None

    def test_aggregate_accumulates_across_runs(self):
        aggregate = CampaignTelemetry()
        config = TelemetryConfig(collect=True, aggregate=aggregate)
        with telemetry_scope(config):
            Executor().run([_spec(0)])
            Executor().run([_spec(1), _spec(2)])
        assert aggregate.flows == 3
        assert aggregate.get("packets_sent") > 0


class TestProgressThroughExecutor:
    def test_progress_lines_written_to_configured_stream(self):
        stream = io.StringIO()
        config = TelemetryConfig(
            collect=False, progress=True, progress_stream=stream
        )
        with telemetry_scope(config):
            execution = Executor().run([_spec(0), _spec(1)])
        text = stream.getvalue()
        assert "flows 2/2" in text
        # Progress is presentation only: no telemetry was collected.
        assert execution.telemetry is None

    def test_progress_does_not_change_result_bytes(self):
        import pickle

        specs = [_spec(seed) for seed in range(2)]
        plain = Executor().run(specs)
        stream = io.StringIO()
        with telemetry_scope(
            TelemetryConfig(collect=False, progress=True, progress_stream=stream)
        ):
            progressed = Executor().run(specs)
        for left, right in zip(plain.outcomes, progressed.outcomes):
            assert pickle.dumps(left.result.log) == pickle.dumps(right.result.log)


class TestCampaignTelemetryValue:
    def test_json_round_trip(self):
        execution = Executor(telemetry=True).run([_spec(0)])
        campaign = execution.telemetry
        import json

        loaded = CampaignTelemetry.from_mapping(json.loads(campaign.to_json()))
        assert loaded.to_json() == campaign.to_json()

    def test_merge_adds_flows_and_counters(self):
        left = CampaignTelemetry(flows=1, counters={"packets_sent": 10})
        right = CampaignTelemetry(flows=2, counters={"packets_sent": 5, "x": 1})
        left.merge(right)
        assert left.flows == 3
        assert left.get("packets_sent") == 15
        assert left.get("x") == 1

    def test_summary_mentions_flows_and_rtos(self):
        campaign = CampaignTelemetry(
            flows=2,
            counters={"packets_sent": 100, "rto_fired": 3, "rto_spurious": 1},
        )
        text = campaign.summary()
        assert "2 flows" in text
        assert "3 RTOs" in text


class TestExecutorDeprecation:
    def test_double_backend_raises(self):
        # Configuration is keyword-only: any positional argument raises.
        for args in ((SerialBackend(),), (SerialBackend(), None)):
            with pytest.raises(TypeError):
                Executor(*args)
        with pytest.raises(TypeError):
            Executor(SerialBackend(), backend=SerialBackend())
