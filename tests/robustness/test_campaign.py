"""Campaign resilience: one bad flow never aborts or perturbs the rest."""

import pytest

import repro.exec.executor as executor_module
import repro.traces.capture as capture_module
from repro.robustness.campaign import CampaignReport, RetryPolicy
from repro.traces.generator import generate_dataset
from repro.util.errors import ConfigurationError, SimulationError
from repro.util.rng import RngStream

# Keep the campaign ≥ 20 flows (the acceptance bar) but short-lived.
FLOW_SCALE = 0.08  # 4 + 6 + 5 + 5 = 20 flows
DURATION = 8.0
SEED = 42


def flow_seeds(seed=SEED, flow_scale=FLOW_SCALE):
    """Replicate the generator's stateless per-flow base-seed derivation."""
    from repro.traces.generator import PAPER_CAMPAIGN

    rng = RngStream(seed, "dataset")
    seeds = []
    for entry in PAPER_CAMPAIGN:
        flows = max(1, round(entry.flows * flow_scale))
        for index in range(flows):
            base = (
                rng.spawn(entry.capture_month, entry.provider.name, index).seed
                & 0x7FFFFFFF
            )
            flow_id = f"{entry.capture_month}/{entry.provider.name}/{index:03d}"
            seeds.append((flow_id, base))
    return seeds


@pytest.fixture()
def fail_flow(monkeypatch):
    """Monkeypatch simulate_spec to raise for chosen seeds; returns the registrar.

    Patching the executor's module global only reaches the serial
    backend, which is what these tests run.
    """
    real_simulate_spec = executor_module.simulate_spec
    bad_seeds = set()

    def failing_simulate_spec(spec):
        if spec.seed in bad_seeds:
            raise SimulationError(f"injected failure for seed {spec.seed}")
        return real_simulate_spec(spec)

    monkeypatch.setattr(executor_module, "simulate_spec", failing_simulate_spec)
    return bad_seeds


class TestRetryPolicy:
    def test_attempt_zero_is_base_seed(self):
        policy = RetryPolicy()
        assert policy.seed_for_attempt(123, 0) == 123

    def test_retry_seeds_differ_and_are_deterministic(self):
        policy = RetryPolicy(max_retries=3)
        seeds = [policy.seed_for_attempt(123, a) for a in range(4)]
        assert len(set(seeds)) == 4
        assert seeds == [policy.seed_for_attempt(123, a) for a in range(4)]

    def test_rejects_negative_retries(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_retries=-1)


class TestCleanCampaign:
    def test_clean_run_has_clean_report(self):
        dataset = generate_dataset(
            seed=SEED, duration=DURATION, flow_scale=FLOW_SCALE
        )
        report = dataset.report
        assert report.ok
        assert report.attempted == 20
        assert report.succeeded == 20
        assert report.retried == 0
        assert report.failures == [] and report.quarantines == []
        assert dataset.flow_count == 20


class TestInjectedFailure:
    def test_persistent_failure_is_quarantined_not_fatal(self, fail_flow):
        seeds = flow_seeds()
        victim_id, victim_base = seeds[7]  # flow N of the 20
        policy = RetryPolicy()
        fail_flow.update(
            policy.seed_for_attempt(victim_base, a)
            for a in range(policy.max_attempts)
        )

        dataset = generate_dataset(
            seed=SEED, duration=DURATION, flow_scale=FLOW_SCALE
        )
        report = dataset.report

        # All other flows survive.
        assert dataset.flow_count == 19
        assert victim_id not in {t.metadata.flow_id for t in dataset.traces}
        # The report names the failed flow, its seeds, and the error.
        assert report.attempted == 20
        assert report.succeeded == 19
        assert report.quarantined == 1
        assert report.quarantines[0].flow_id == victim_id
        assert report.quarantines[0].seed == victim_base
        assert "injected failure" in report.quarantines[0].reason
        assert len(report.failures) == policy.max_attempts
        assert {f.flow_id for f in report.failures} == {victim_id}
        assert [f.attempt for f in report.failures] == list(
            range(policy.max_attempts)
        )

    def test_transient_failure_is_retried_with_new_seed(self, fail_flow):
        seeds = flow_seeds()
        victim_id, victim_base = seeds[3]
        fail_flow.add(victim_base)  # only attempt 0 fails

        dataset = generate_dataset(
            seed=SEED, duration=DURATION, flow_scale=FLOW_SCALE
        )
        report = dataset.report

        assert dataset.flow_count == 20
        assert report.ok
        assert report.retried == 1
        assert len(report.failures) == 1
        assert report.failures[0].flow_id == victim_id
        assert report.failures[0].seed == victim_base
        retried = [t for t in dataset.traces if t.metadata.flow_id == victim_id]
        assert len(retried) == 1
        assert retried[0].metadata.seed == RetryPolicy().seed_for_attempt(
            victim_base, 1
        )

    def test_failure_does_not_perturb_other_flows(self, fail_flow):
        clean = generate_dataset(seed=SEED, duration=DURATION, flow_scale=FLOW_SCALE)
        seeds = flow_seeds()
        victim_id, victim_base = seeds[7]
        policy = RetryPolicy()
        fail_flow.update(
            policy.seed_for_attempt(victim_base, a)
            for a in range(policy.max_attempts)
        )
        degraded = generate_dataset(
            seed=SEED, duration=DURATION, flow_scale=FLOW_SCALE
        )
        clean_by_id = {
            t.metadata.flow_id: t.delivered_payloads for t in clean.traces
        }
        for trace in degraded.traces:
            assert (
                trace.delivered_payloads == clean_by_id[trace.metadata.flow_id]
            )

    def test_same_seed_reproduces_byte_identical_report(self, fail_flow):
        seeds = flow_seeds()
        _, victim_base = seeds[7]
        policy = RetryPolicy()
        fail_flow.update(
            policy.seed_for_attempt(victim_base, a)
            for a in range(policy.max_attempts)
        )
        first = generate_dataset(
            seed=SEED, duration=DURATION, flow_scale=FLOW_SCALE
        ).report
        second = generate_dataset(
            seed=SEED, duration=DURATION, flow_scale=FLOW_SCALE
        ).report
        assert first.to_json() == second.to_json()
        assert not first.ok  # and it is a *degraded* report, not an empty one

    def test_zero_retries_policy(self, fail_flow):
        seeds = flow_seeds()
        _, victim_base = seeds[0]
        fail_flow.add(victim_base)
        dataset = generate_dataset(
            seed=SEED,
            duration=DURATION,
            flow_scale=FLOW_SCALE,
            retry_policy=RetryPolicy(max_retries=0),
        )
        assert dataset.report.quarantined == 1
        assert dataset.report.retried == 0
        assert dataset.flow_count == 19


class TestValidationQuarantine:
    def test_corrupt_capture_is_quarantined_with_reason(self, monkeypatch):
        real_capture = capture_module.capture_flow
        corrupted = []

        def corrupting_capture(result, metadata, validate=False):
            trace = real_capture(result, metadata, validate=False)
            if metadata.flow_id.endswith("/001") and trace.data_packets:
                # Timestamps running backwards: the validator must veto it.
                trace.data_packets.send_time[-1] = -5.0
                corrupted.append(metadata.flow_id)
            if validate:
                from repro.robustness.validate import validate_trace
                from repro.util.errors import TraceValidationError

                issues = validate_trace(trace)
                if issues:
                    raise TraceValidationError(metadata.flow_id, issues)
            return trace

        # simulate_spec imports capture_flow from its module at call
        # time, so patching repro.traces.capture reaches it.
        monkeypatch.setattr(capture_module, "capture_flow", corrupting_capture)
        # flow_scale 0.03 gives two flows per cell, so each cell has a
        # ".../001" flow for the corruptor to hit.
        dataset = generate_dataset(seed=SEED, duration=DURATION, flow_scale=0.03)
        assert corrupted  # the corruption path actually ran
        bad_ids = set(corrupted)
        assert dataset.report.quarantined == len(bad_ids)
        assert all(
            t.metadata.flow_id not in bad_ids for t in dataset.traces
        )
        assert all(
            "TraceValidationError" in q.reason for q in dataset.report.quarantines
        )


class TestReportRendering:
    def test_summary_and_format(self):
        report = CampaignReport(attempted=20, succeeded=19, retried=2, quarantined=1)
        assert "19/20" in report.summary()
        assert "quarantined" in report.format()

    def test_to_json_is_canonical(self):
        report = CampaignReport(attempted=1, succeeded=1)
        assert report.to_json() == report.to_json()
        assert '"attempted":1' in report.to_json()
