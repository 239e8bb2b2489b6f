"""timeline(): phase-tagged event records read off a finished flow."""

from repro.simulator.channel import BernoulliLoss
from repro.simulator.connection import ConnectionConfig, run_flow
from repro.telemetry import summarise, timeline
from repro.util.rng import RngStream


def _flow(seed=31, duration=25.0):
    return run_flow(
        ConnectionConfig(duration=duration),
        data_loss=BernoulliLoss(0.02, RngStream(seed, "data")),
        ack_loss=BernoulliLoss(0.01, RngStream(seed, "ack")),
        seed=seed,
    )


def _of_kind(events, kind):
    return [event for event in events if event.kind == kind]


class TestTimeline:
    def test_records_drops_and_phase_transitions(self):
        result = _flow()
        events = timeline(result)
        summary = summarise(result)
        drops = _of_kind(events, "drop")
        assert len(drops) == summary.get("packets_dropped") > 0
        assert len(_of_kind(events, "phase")) == summary.get("cwnd_phase_transitions")
        assert all(event.detail in ("data", "ack") for event in drops)

    def test_packet_events_off_by_default(self):
        events = timeline(_flow())
        assert _of_kind(events, "send") == []
        assert _of_kind(events, "delivery") == []

    def test_record_packets_captures_sends(self):
        result = _flow(duration=5.0)
        events = timeline(result, record_packets=True)
        summary = summarise(result)
        assert len(_of_kind(events, "send")) == summary.get("packets_sent")
        assert len(_of_kind(events, "delivery")) == summary.get("packets_delivered")

    def test_events_are_time_ordered(self):
        times = [event.time for event in timeline(_flow(), record_packets=True)]
        assert times == sorted(times)

    def test_phase_tags_track_sender_phases(self):
        result = _flow()
        # The set of phases events were tagged with must be a subset of
        # the phases the sender actually logged.
        logged_phases = {sample.phase for sample in result.log.cwnd_samples}
        tagged_phases = {event.phase for event in timeline(result)}
        assert tagged_phases <= logged_phases
        for event in _of_kind(timeline(result), "rto_fired"):
            assert event.phase == "timeout_recovery"

    def test_transition_event_is_tagged_with_departing_phase(self):
        phases = _of_kind(timeline(_flow()), "phase")
        assert phases
        for before, event in zip(phases, phases[1:]):
            old_phase, new_phase = event.detail.split(" cwnd=")[0].split(" -> ")
            assert event.phase == old_phase
            assert before.detail.split(" cwnd=")[0].split(" -> ")[1] == old_phase

    def test_rto_fired_events_name_spuriousness(self):
        result = _flow()
        fired = _of_kind(timeline(result), "rto_fired")
        summary = summarise(result)
        assert len(fired) == summary.get("rto_fired") > 0
        spurious = [event for event in fired if "spurious" in event.detail]
        assert len(spurious) == summary.get("rto_spurious")
