"""Golden-trace determinism: a fixed-seed flow is byte-identical forever.

The engine/RNG hot-path optimizations (tuple heap entries, payload
scheduling, block-buffered loss draws) all promise the *identical*
event and draw sequence as the original scalar code.  This test pins
that promise: a fixed-seed HSR flow must hash to the digest recorded
below.  If an optimization legitimately has to change the sequence,
re-pin the digest **and** re-run the model-vs-trace calibration checks
(``scripts/calibrate.py``) in the same change — a silent re-pin is
exactly the regression this test exists to catch.
"""

import hashlib
from dataclasses import astuple

from repro.exec import Executor, FlowSpec, simulate_spec
from repro.hsr.scenario import hsr_scenario
from repro.simulator.connection import run_flow
from repro.telemetry import summarise, timeline

GOLDEN_SEED = 20150402
GOLDEN_DURATION = 12.0

#: sha256 over the canonical rendering of every FlowLog record of the
#: fixed-seed flow below.  Pinned against the optimized engine, whose
#: draw/event sequence is identical to the original scalar code.
GOLDEN_DIGEST = "b0ea4abc541f73061b16add3cd79ca194ab5b0b278d0e25f5f35ee659cd7b283"


def _flow_log(seed: int = GOLDEN_SEED, duration: float = GOLDEN_DURATION, **kwargs):
    built = hsr_scenario().build(duration=duration, seed=seed)
    return run_flow(
        built.config, built.data_loss, built.ack_loss, seed=seed, **kwargs
    ).log


def _digest(log) -> str:
    hasher = hashlib.sha256()
    for records in (log.data_packets, log.acks, log.timeouts, log.recovery_phases):
        for record in records:
            hasher.update(repr(astuple(record)).encode())
    for sample in log.cwnd_samples:
        hasher.update(repr(astuple(sample)).encode())
    hasher.update(
        repr((log.delivered_payloads, log.duplicate_payloads)).encode()
    )
    return hasher.hexdigest()


class TestGoldenTrace:
    def test_fixed_seed_flow_matches_pinned_digest(self):
        assert _digest(_flow_log()) == GOLDEN_DIGEST

    def test_rerun_is_byte_identical(self):
        assert _digest(_flow_log()) == _digest(_flow_log())

    def test_spec_route_agrees_with_direct_run_flow(self):
        # The executor pipeline (FlowSpec → simulate_spec) must drive
        # the exact same simulation as calling run_flow by hand.
        result, _ = simulate_spec(_golden_spec())
        assert _digest(result.log) == GOLDEN_DIGEST

    def test_null_telemetry_matches_pinned_digest(self):
        # A campaign with collection off runs the same simulation.
        execution = Executor(telemetry=False).run([_golden_spec()])
        assert execution.telemetry is None
        assert _digest(execution.results[0].log) == GOLDEN_DIGEST

    def test_counting_telemetry_matches_pinned_digest(self):
        # Counters are read off the finished flow, so collecting them
        # (and building its timeline) never perturbs the log.
        execution = Executor(telemetry=True).run([_golden_spec()])
        log = execution.results[0].log
        assert execution.telemetry.get("packets_sent") > 0
        summarise(execution.results[0])
        timeline(execution.results[0], record_packets=True)
        assert _digest(log) == GOLDEN_DIGEST


def _golden_spec() -> FlowSpec:
    return FlowSpec(
        scenario=hsr_scenario(),
        duration=GOLDEN_DURATION,
        seed=GOLDEN_SEED,
        flow_id="golden",
    )
