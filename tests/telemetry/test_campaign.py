"""Campaign telemetry: executor aggregation, backends, the run context.

The determinism contract: campaign telemetry is assembled from
wall-clock-free counters, merged in spec order, so its canonical JSON
is byte-identical between serial and process-pool runs.
"""

import contextlib
import io

import pytest

from repro.context import current_run_context, run_context
from repro.exec import Executor, FlowSpec
from repro.exec.executor import ProcessPoolBackend, SerialBackend
from repro.simulator.channel import BernoulliLoss
from repro.simulator.connection import ConnectionConfig
from repro.store import decode_outcome, encode_outcome
from repro.telemetry import CampaignTelemetry, summarise
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

    def test_collects_when_enabled(self):
        execution = Executor(telemetry=True).run([_spec(0), _spec(1)])
        campaign = execution.telemetry
        assert campaign is not None
        assert campaign.flows == 2
        assert campaign.get("packets_sent") > 0
        assert campaign.get("events_fired") > 0
        assert campaign.get("rto_armed") > 0

    def test_campaign_is_sum_of_flow_counters(self):
        execution = Executor(telemetry=True).run([_spec(3), _spec(4)])
        for name in ("packets_sent", "events_scheduled", "rto_spurious"):
            total = sum(
                summarise(outcome.result).get(name)
                for outcome in execution.outcomes
            )
            assert execution.telemetry.get(name) == total

    def test_serial_and_pool_json_byte_identical(self):
        specs = [_spec(seed) for seed in range(4)]
        serial = Executor(backend=SerialBackend(), telemetry=True).run(specs)
        pooled = Executor(backend=ProcessPoolBackend(2), telemetry=True).run(specs)
        assert serial.telemetry.to_json() == pooled.telemetry.to_json()

    def test_explicit_false_overrides_ambient(self):
        with run_context(telemetry=CampaignTelemetry()):
            execution = Executor(telemetry=False).run([_spec(0)])
        assert execution.telemetry is None


class TestStoreRoundTrip:
    def test_warm_rerun_with_telemetry_matches_uncached(self, tmp_path):
        # Counters are read off the result, so a store filled without
        # telemetry serves a telemetry rerun the same numbers an
        # uncached run reports; only the cache counters tell them apart.
        specs = [_spec(seed) for seed in range(3)]
        uncached = Executor(telemetry=True).run(specs).telemetry.to_dict()
        with run_context(store=tmp_path / "store"):
            Executor().run(specs)
            warm = Executor(telemetry=True).run(specs)
        assert warm.report.cache_hits == 3
        cached = warm.telemetry.to_dict()
        assert cached["counters"].pop("cache_hit") == 3
        assert uncached["counters"].pop("cache_hit") == 0
        assert cached == uncached
        assert cached["counters"]["packets_sent"] > 0
        assert cached["counters"]["events_fired"] > 0

    def test_entry_without_counters_zeroes_only_the_non_log_counters(self):
        (outcome,) = Executor().run([_spec(0)]).outcomes
        payload = encode_outcome(outcome)
        payload["result"]["counters"] = None  # an entry that stored none
        restored = decode_outcome(payload, index=0, spec=outcome.spec)
        fresh = summarise(outcome.result).counters
        stale = summarise(restored.result).counters
        non_log = {"events_scheduled", "events_fired", "events_cancelled", "rto_armed"}
        assert {name for name in fresh if fresh[name] != stale[name]} == non_log
        assert all(stale[name] == 0 for name in non_log)


class TestAmbientScope:
    def test_scope_installs_and_restores(self):
        assert current_run_context().telemetry is None
        aggregate = CampaignTelemetry()
        with run_context(telemetry=aggregate):
            assert current_run_context().telemetry is aggregate
        assert current_run_context().telemetry is None

    def test_executor_inherits_ambient_collection(self):
        with run_context(telemetry=CampaignTelemetry()):
            execution = Executor().run([_spec(0)])
        assert execution.telemetry is not None

    def test_aggregate_accumulates_across_runs(self):
        aggregate = CampaignTelemetry()
        with run_context(telemetry=aggregate):
            Executor().run([_spec(0)])
            Executor().run([_spec(1), _spec(2)])
        assert aggregate.flows == 3
        assert aggregate.get("packets_sent") > 0


class TestProgressThroughExecutor:
    def test_progress_lines_written_to_configured_stream(self):
        stream = io.StringIO()
        with run_context(progress=True), contextlib.redirect_stderr(stream):
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
        with run_context(progress=True), contextlib.redirect_stderr(stream):
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
