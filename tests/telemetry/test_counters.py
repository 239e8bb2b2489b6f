"""``summarise`` reads every per-flow counter off the finished flow.

The reconciliation tests recompute each log fact record by record, the
slow way, and require the column-based summary to agree exactly; the
spurious-RTO rule is pinned on hand-built logs.
"""

import pickle

import pytest

from repro.simulator.channel import BernoulliLoss, GilbertElliottLoss
from repro.simulator.connection import ConnectionConfig, FlowResult, run_flow
from repro.simulator.metrics import FlowLog, TimeoutRecord
from repro.telemetry import COUNTER_NAMES, FlowTelemetrySummary, summarise, timeline
from repro.util.rng import RngStream


def _lossy_flow(seed=11, duration=25.0, variant="reno"):
    return run_flow(
        ConnectionConfig(duration=duration, jitter_sigma=0.1),
        data_loss=BernoulliLoss(0.012, RngStream(seed, "data")),
        ack_loss=GilbertElliottLoss(
            RngStream(seed, "ack"), mean_good_duration=5.0, mean_bad_duration=0.3
        ),
        seed=seed,
        variant=variant,
    )


class TestReconciliation:
    @pytest.mark.parametrize("variant", ["reno", "newreno"])
    def test_counters_match_flow_log(self, variant):
        log = _lossy_flow(variant=variant).log
        counters = summarise(FlowResult(ConnectionConfig(), log, 25.0)).counters

        assert counters["data_sent"] == sum(1 for _ in log.data_packets)
        assert counters["data_dropped"] == sum(p.dropped for p in log.data_packets)
        assert counters["acks_sent"] == sum(1 for _ in log.acks)
        assert counters["acks_dropped"] == sum(a.dropped for a in log.acks)
        assert counters["data_delivered"] == sum(
            1 for p in log.data_packets if p.arrival_time is not None
        )
        assert counters["acks_delivered"] == sum(
            1 for a in log.acks if a.arrival_time is not None
        )

        assert counters["rto_fired"] == len(log.timeouts) > 0
        assert 0 <= counters["rto_spurious"] <= counters["rto_fired"]

        phase_changes = sum(
            1
            for before, after in zip(log.cwnd_samples, log.cwnd_samples[1:])
            if before.phase != after.phase
        )
        assert counters["cwnd_phase_transitions"] == phase_changes

    def test_direction_split_sums_to_totals(self):
        summary = summarise(_lossy_flow())
        for total, data, acks in (
            ("packets_sent", "data_sent", "acks_sent"),
            ("packets_dropped", "data_dropped", "acks_dropped"),
            ("packets_delivered", "data_delivered", "acks_delivered"),
        ):
            assert summary.get(total) == summary.get(data) + summary.get(acks)

    def test_engine_counters_are_consistent(self):
        summary = summarise(_lossy_flow())
        assert summary.get("events_fired") > 0
        assert summary.get("events_cancelled") > 0
        # Fired and cancelled events are disjoint parts of everything
        # scheduled; the rest was still queued at the horizon.
        assert (
            summary.get("events_fired") + summary.get("events_cancelled")
            <= summary.get("events_scheduled")
        )

    def test_rto_armed_covers_every_fire(self):
        summary = summarise(_lossy_flow())
        assert summary.get("rto_armed") >= summary.get("rto_fired")

    def test_clean_channel_has_no_drops_or_timeouts(self):
        summary = summarise(run_flow(ConnectionConfig(duration=10.0)))
        assert summary.get("packets_dropped") == 0
        assert summary.get("rto_fired") == 0
        assert summary.get("budget_trips") == 0
        assert summary.get("packets_sent") > 0


def _timed_out_log(*copies):
    """A log whose one timeout (t=2.0, seq 5) follows data ``copies``
    of (seq, send_time, subflow_id, dropped), then the RTO's own
    retransmission of seq 5 at t=2.0."""
    log = FlowLog()
    for row, (seq, time, subflow, dropped) in enumerate(copies):
        log.record_data_send(row, seq, time, subflow_id=subflow)
        if dropped:
            log.record_data_drop(row)
    log.timeouts.append(TimeoutRecord(2.0, 5, 0, 1.0, 0))
    log.record_data_send(len(copies), 5, 2.0, True, True)
    return FlowResult(ConnectionConfig(), log, 3.0)


class TestSpuriousRule:
    def test_latest_copy_dropped_is_genuine(self):
        result = _timed_out_log((5, 0.5, 0, False), (5, 1.0, 0, True))
        assert summarise(result).get("rto_spurious") == 0

    def test_latest_copy_not_dropped_is_spurious(self):
        # The copy reached the channel's far side (or is still in
        # flight): the timer fired on a lost or late ACK.
        result = _timed_out_log((5, 0.5, 0, True), (5, 1.0, 0, False))
        assert summarise(result).get("rto_spurious") == 1

    def test_backup_subflow_copy_is_ignored(self):
        # An MPTCP backup copy rides subflow 1; the rule reads the
        # sender's own latest copy.
        result = _timed_out_log((5, 1.0, 0, True), (5, 1.0, 1, False))
        assert summarise(result).get("rto_spurious") == 0

    def test_no_earlier_copy_is_genuine(self):
        assert summarise(_timed_out_log()).get("rto_spurious") == 0

    def test_timeline_names_the_same_verdict(self):
        result = _timed_out_log((5, 1.0, 0, False))
        (fired,) = [e for e in timeline(result) if e.kind == "rto_fired"]
        assert fired.detail == "seq=5 spurious backoff=0"


class TestInstrumentationIsInert:
    def test_instrumented_flow_is_bit_identical_to_plain(self):
        """Summarising reads the flow; it must never change it."""
        result = _lossy_flow(seed=23)
        before = pickle.dumps(result.log)
        summarise(result)
        timeline(result, record_packets=True)
        assert pickle.dumps(result.log) == before
        assert pickle.dumps(_lossy_flow(seed=23).log) == before


class TestSummaries:
    def test_summarise_round_trips_every_counter(self):
        summary = summarise(_lossy_flow(), "flow/0")
        assert isinstance(summary, FlowTelemetrySummary)
        assert summary.flow_id == "flow/0"
        for name in COUNTER_NAMES:
            assert summary.get(name) == summary.counters[name]

    def test_as_dict_preserves_declaration_order(self):
        summary = summarise(run_flow(ConnectionConfig(duration=1.0)))
        assert tuple(summary.counters) == COUNTER_NAMES

    def test_summary_pickles(self):
        summary = summarise(_lossy_flow(), "f")
        clone = pickle.loads(pickle.dumps(summary))
        assert clone == summary
