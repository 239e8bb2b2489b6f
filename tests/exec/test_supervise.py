"""Unit tests for the supervision layer: policy, taxonomy, drain, wrap."""

import os
import pickle
import signal

import pytest

import repro.exec.executor as executor_module
from repro.context import current_run_context, run_context
from repro.exec import (
    ChaosPlan,
    Executor,
    FlowSpec,
    ProcessPoolBackend,
    SerialBackend,
    SupervisedBackend,
    SupervisorPolicy,
    clear_interrupt,
    interrupt_signal,
    simulate_spec,
)
from repro.exec.supervise import _DrainGuard
from repro.robustness.campaign import RetryPolicy, classify
from repro.simulator.connection import ConnectionConfig
from repro.util.errors import (
    ConfigurationError,
    DeadlineExceededError,
    SimulationError,
    WorkerCrashError,
)


def spec(seed=0, flow_id="flow", **overrides) -> FlowSpec:
    base = dict(duration=2.0, wmax=16.0)
    base.update(overrides)
    return FlowSpec(config=ConnectionConfig(**base), seed=seed, flow_id=flow_id)


def payloads(n):
    return [(i, spec(seed=20 + i, flow_id=f"s/{i}")) for i in range(n)]


class TestSupervisorPolicy:
    def test_defaults(self):
        policy = SupervisorPolicy()
        assert policy.deadline_s is None
        assert policy.max_worker_restarts == 8
        assert policy.drain_signals

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline_s": 0.0},
            {"deadline_s": -1.0},
            {"max_worker_restarts": -1},
            {"grace_s": -0.1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            SupervisorPolicy(**kwargs)

    def test_scope_is_ambient_and_restored(self):
        assert current_run_context().supervisor is None
        policy = SupervisorPolicy(deadline_s=5.0)
        with run_context(supervisor=policy):
            assert current_run_context().supervisor is policy
        assert current_run_context().supervisor is None


class TestRetryTaxonomy:
    def test_classify_buckets(self):
        assert classify(ConfigurationError("bad")) == "deterministic"
        assert classify(WorkerCrashError("died")) == "infrastructure"
        assert classify(DeadlineExceededError("slow")) == "infrastructure"
        assert classify(OSError("disk")) == "infrastructure"
        assert classify(RuntimeError("flaky")) == "transient"

    def test_deterministic_never_retries(self, monkeypatch):
        # With budget to spare, a deterministic failure is attempted
        # once and a transient one until it succeeds.
        def failing(sim_spec):
            if sim_spec.flow_id == "s/0":
                raise ConfigurationError("bad knob")
            if sim_spec.seed == 21:  # s/1's base seed
                raise SimulationError("flaky")
            return simulate_spec(sim_spec)

        monkeypatch.setattr(executor_module, "simulate_spec", failing)
        stuck, flaky = SupervisedBackend().map(
            payloads(2), retry_policy=RetryPolicy(max_retries=3)
        )
        assert stuck.attempts == 1 and stuck.quarantine is not None
        assert flaky.ok and flaky.attempts == 2

    def test_configuration_error_quarantines_on_attempt_0(self):
        # cc variants resolve inside the attempt; a bad name is the
        # canonical deterministic failure
        bad = FlowSpec(
            config=ConnectionConfig(duration=2.0), seed=1, cc="no-such-cc"
        )
        (outcome,) = SupervisedBackend().map(
            [(0, bad)], retry_policy=RetryPolicy(max_retries=3)
        )
        assert not outcome.ok
        assert outcome.attempts == 1  # attempt 0 only — no retry burn
        assert [f.failure_class for f in outcome.failures] == ["deterministic"]
        assert outcome.quarantine.reason.startswith(
            "deterministic failure on attempt 0; not retried: ConfigurationError: "
        )


class TestSupervisedBackendInline:
    def test_serial_inner_byte_identical_to_bare(self):
        batch = payloads(3)
        bare = [simulate_spec(flow)[0] for _, flow in batch]
        supervised = SupervisedBackend(SerialBackend()).map(batch)
        assert len(bare) == len(supervised)
        for (_, flow), a, b in zip(batch, bare, supervised):
            assert flow.flow_id == b.spec.flow_id
            assert a.throughput == b.result.throughput
            assert a.log.data_sent == b.result.log.data_sent

    def test_executor_wraps_by_default(self, monkeypatch):
        seen = []
        real = SupervisedBackend.map

        def spy(self, *args, **kwargs):
            seen.append((type(self.inner), self.policy))
            return real(self, *args, **kwargs)

        monkeypatch.setattr(SupervisedBackend, "map", spy)
        Executor().run([spec(seed=1)])
        assert seen == [(SerialBackend, SupervisorPolicy())]

    def test_executor_honours_ambient_policy(self):
        # The ambient policy's chaos schedule reaches the batch: the
        # injected raise fires and is retried.
        policy = SupervisorPolicy(chaos=ChaosPlan(raise_={"flow": (0,)}))
        with run_context(supervisor=policy):
            report = Executor().run([spec(seed=1)]).report
        assert [f.error_type for f in report.failures] == ["ChaosError"]
        assert report.succeeded == 1

    def test_explicit_supervised_backend_not_rewrapped(self):
        # A configured SupervisedBackend is not re-supervised under the
        # ambient policy: its own chaos schedule still fires.
        backend = SupervisedBackend(
            SerialBackend(),
            policy=SupervisorPolicy(chaos=ChaosPlan(raise_={"flow": (0,)})),
        )
        with run_context(supervisor=SupervisorPolicy()):
            report = Executor(backend=backend).run([spec(seed=1)]).report
        assert [f.error_type for f in report.failures] == ["ChaosError"]

    def test_progress_counts_every_flow(self):
        seen = []
        SupervisedBackend(SerialBackend()).map(payloads(3), seen.append)
        assert seen == [1, 2, 3]


class TestSupervisedBackendPooled:
    def test_pool_inner_matches_serial_bytes(self):
        batch = payloads(4)
        serial = SupervisedBackend(SerialBackend()).map(batch)
        pooled = SupervisedBackend(ProcessPoolBackend(2)).map(batch)
        for a, b in zip(serial, pooled):
            assert a.result.throughput == b.result.throughput
            assert a.result.log.data_sent == b.result.log.data_sent
            assert a.failures == b.failures

    def test_pool_map_survives_a_worker_crash(self):
        # A dead worker costs one flow, not the batch: the killer is
        # isolated and quarantined (no retry budget), the rest match
        # serial.
        batch = payloads(4)
        no_retries = RetryPolicy(max_retries=0)
        serial = SupervisedBackend().map(batch, retry_policy=no_retries)
        outcomes = SupervisedBackend(
            ProcessPoolBackend(2),
            policy=SupervisorPolicy(chaos=ChaosPlan(crash={"s/1": (0,)})),
        ).map(batch, retry_policy=no_retries)
        assert [o.spec.flow_id for o in outcomes] == [f"s/{i}" for i in range(4)]
        crashes = [
            f for o in outcomes for f in o.failures
            if f.failure_class == "worker_crash"
        ]
        assert [f.flow_id for f in crashes] == ["s/1"]
        assert outcomes[1].quarantine is not None
        for index in (0, 2, 3):
            assert pickle.dumps(outcomes[index]) == pickle.dumps(serial[index])

    def test_deadline_pools_the_whole_auto_batch(self, monkeypatch):
        # auto's inline probe would leave its two flows beyond the
        # deadline's reach, so a deadline skips it
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        batch = payloads(3)
        inline = SupervisedBackend(SerialBackend()).map(batch)
        auto = ProcessPoolBackend(2, auto=True)
        pooled = SupervisedBackend(
            auto, policy=SupervisorPolicy(deadline_s=60.0)
        ).map(batch)
        assert auto.last_decision["mode"] == "pool"
        assert auto.last_decision["workers"] == 2
        assert "probe_s" not in auto.last_decision
        for a, b in zip(inline, pooled):
            assert pickle.dumps(a) == pickle.dumps(b)

    def test_deadline_forces_pool_even_for_serial_inner(self):
        # a 1-worker pool is stood up so preemption has a process to
        # kill; results must still match inline execution
        batch = payloads(2)
        inline = SupervisedBackend(SerialBackend()).map(batch)
        pooled = SupervisedBackend(
            SerialBackend(), policy=SupervisorPolicy(deadline_s=60.0)
        ).map(batch)
        for a, b in zip(inline, pooled):
            assert a.result.throughput == b.result.throughput


class TestDrainGuard:
    def test_sigterm_sets_flag_instead_of_dying(self):
        clear_interrupt()
        with _DrainGuard(enabled=True) as guard:
            assert guard.installed
            os.kill(os.getpid(), signal.SIGTERM)
            assert guard.tripped
            assert guard.signum == signal.SIGTERM
        assert interrupt_signal() == signal.SIGTERM
        clear_interrupt()
        assert interrupt_signal() is None

    def test_handlers_restored_on_exit(self):
        before = signal.getsignal(signal.SIGTERM)
        with _DrainGuard(enabled=True):
            assert signal.getsignal(signal.SIGTERM) != before
        assert signal.getsignal(signal.SIGTERM) == before

    def test_disabled_guard_is_inert(self):
        before = signal.getsignal(signal.SIGINT)
        with _DrainGuard(enabled=False) as guard:
            assert not guard.installed
            assert signal.getsignal(signal.SIGINT) == before

    def test_drain_skips_remaining_and_marks_interrupted(self, monkeypatch):
        clear_interrupt()
        backend = SupervisedBackend(SerialBackend())
        batch = payloads(4)
        fired = []

        def tripping(sim_spec):
            # trip the drain flag mid-batch, as a signal handler would
            outcome = simulate_spec(sim_spec)
            fired.append(sim_spec.flow_id)
            if len(fired) == 2:
                os.kill(os.getpid(), signal.SIGTERM)
            return outcome

        monkeypatch.setattr(executor_module, "simulate_spec", tripping)
        outcomes = backend.map(batch)
        assert backend.last_interrupted
        assert fired == ["s/0", "s/1"]
        assert [o.skipped for o in outcomes] == [False, False, True, True]
        assert [o.attempts for o in outcomes] == [1, 1, 0, 0]
        clear_interrupt()

    def test_executor_marks_report_interrupted(self):
        clear_interrupt()
        specs = [payload[1] for payload in payloads(3)]
        calls = []
        real = executor_module.simulate_spec

        def tripping(s):
            calls.append(s.flow_id)
            if len(calls) == 1:
                os.kill(os.getpid(), signal.SIGTERM)
            return real(s)

        executor_module.simulate_spec, saved = tripping, real
        try:
            result = Executor().run(specs)
        finally:
            executor_module.simulate_spec = saved
        assert result.report.interrupted
        assert result.report.attempted == 1
        assert result.report.succeeded == 1
        assert "interrupted" in result.report.summary()
        assert '"interrupted":true' in result.report.to_json()
        clear_interrupt()
