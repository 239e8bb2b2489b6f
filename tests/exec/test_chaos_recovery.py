"""Recovery mechanics under injected execution faults.

Where ``test_chaos_determinism`` proves the headline gate, this suite
exercises each supervision path on its own: crash-once-then-recover,
killer isolation among concurrent workers, injected worker-side raises,
give-up after repeated crashes, the restart budget, deadline preemption
of a hung flow, and the forced pool an auto backend must honour.
"""

import os

import pytest

from repro.exec import Executor, ProcessPoolBackend, SerialBackend
from repro.exec.chaos import ChaosPlan
from repro.exec.spec import FlowSpec
from repro.exec.supervise import SupervisedBackend, SupervisorPolicy
from repro.robustness.campaign import RetryPolicy
from repro.robustness.watchdog import Watchdog
from repro.simulator.connection import ConnectionConfig
from repro.traces.events import FlowMetadata


def spec(seed=0, flow_id="flow", duration=2.0):
    return FlowSpec(
        config=ConnectionConfig(duration=duration, wmax=16.0),
        seed=seed,
        flow_id=flow_id,
    )


def chaotic(plan, placement, **policy):
    """``placement`` supervised under ``plan`` (and any other policy)."""
    return SupervisedBackend(
        placement, policy=SupervisorPolicy(chaos=plan, **policy)
    )


def specs(n, duration=2.0):
    return [
        spec(seed=30 + i, flow_id=f"f/{i}", duration=duration)
        for i in range(n)
    ]


class TestCrashRecovery:
    def test_crash_once_then_recover(self):
        plan = ChaosPlan(crash={"f/1": (0,)})
        backend = chaotic(plan, ProcessPoolBackend(2))
        result = Executor(backend=backend).run(specs(4))
        report = result.report
        assert report.succeeded == 4
        assert report.quarantined == 0
        assert report.retried == 1  # exactly the one re-execution
        (failure,) = report.failures
        assert failure.flow_id == "f/1"
        assert failure.attempt == 0
        assert failure.failure_class == "worker_crash"
        assert failure.error_type == "WorkerCrashError"
        assert "pool rebuilt" in failure.error
        # the crashed flow's outcome still carries a result
        victim = next(o for o in result.outcomes if o.spec.flow_id == "f/1")
        assert victim.ok and victim.result is not None
        assert victim.attempts == 2

    def test_isolation_pins_blame_on_the_killer(self):
        # Two workers, one killer: whoever shares the pool at crash
        # time is a bystander and must end up with a clean record.
        plan = ChaosPlan(crash={"f/2": (0,)})
        backend = chaotic(plan, ProcessPoolBackend(2))
        result = Executor(backend=backend).run(specs(6))
        report = result.report
        assert report.succeeded == 6
        assert [f.flow_id for f in report.failures] == ["f/2"]
        for outcome in result.outcomes:
            if outcome.spec.flow_id != "f/2":
                assert outcome.failures == []
                assert outcome.attempts == 1

    def test_pool_timing_does_not_change_report_bytes(self):
        plan = ChaosPlan(crash={"f/0": (0,), "f/3": (0,)})
        runs = []
        for _ in range(2):
            backend = chaotic(plan, ProcessPoolBackend(2))
            runs.append(Executor(backend=backend).run(specs(5)))
        assert runs[0].report.to_json() == runs[1].report.to_json()
        assert runs[0].report.succeeded == 5

    def test_repeated_crash_exhausts_budget_and_quarantines(self):
        plan = ChaosPlan(crash={"f/0": (0, 1, 2)})
        backend = chaotic(plan, ProcessPoolBackend(1))
        result = Executor(
            backend=backend, retry_policy=RetryPolicy(max_retries=2)
        ).run(specs(2))
        report = result.report
        assert report.succeeded == 1
        assert report.quarantined == 1
        assert len(report.failures) == 3  # one per execution
        assert all(f.failure_class == "worker_crash" for f in report.failures)
        (record,) = report.quarantines
        assert record.flow_id == "f/0"
        assert record.reason == (
            "all 3 attempts failed; last: WorkerCrashError: worker process "
            "died while running this flow (exit status 71 or signal); "
            "pool rebuilt"
        )
        victim = result.outcomes[0]
        assert not victim.ok and victim.attempts == 3

    def test_restart_budget_stops_the_bleeding(self):
        # With a zero restart budget the first crash is terminal: the
        # supervisor quarantines everything unfinished instead of
        # rebuilding pools forever against sick infrastructure.
        plan = ChaosPlan(crash={"f/0": (0,)})
        backend = chaotic(plan, ProcessPoolBackend(1), max_worker_restarts=0)
        result = Executor(backend=backend).run(specs(3))
        report = result.report
        assert report.attempted == 3
        assert report.quarantined == 3
        assert all(
            "worker-restart budget exhausted" in record.reason
            for record in report.quarantines
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_spent_budget_quarantines_every_unfinished_flow(self, workers):
        # The budget means the same thing at any pool width: the restart
        # that spends it quarantines the queued flows too, not only
        # those in flight (with two workers the second crash lands
        # while the killer is being isolated).  The flows are long
        # (about 2 s of wall clock each) so f/1 is still running when
        # f/0's worker dies: a 2-s flow finishes in a few milliseconds,
        # well inside the start-up skew of two spawn workers.  Every
        # flow is killed or quarantined before it finishes, so the
        # length costs no time.
        plan = ChaosPlan(crash={"f/0": (0, 1)})
        backend = chaotic(
            plan, ProcessPoolBackend(workers), max_worker_restarts=1
        )
        report = Executor(backend=backend).run(specs(6, duration=600.0)).report
        assert report.quarantined == 6
        assert all(
            "worker-restart budget exhausted" in record.reason
            for record in report.quarantines
        )


class TestMixedFailures:
    def test_crashes_and_raises_share_one_budget(self):
        # Two worker crashes, then a watchdog trip on every attempt: the
        # three failures spend one three-attempt budget between them and
        # are numbered 0..2.  Crashes rerun the seed that crashed.
        plan = ChaosPlan(crash={"f/0": (0, 1)})
        backend = chaotic(plan, ProcessPoolBackend(1))
        tripping = spec(seed=30, flow_id="f/0").with_(
            watchdog=Watchdog(max_events=10)
        )
        result = Executor(
            backend=backend, retry_policy=RetryPolicy(max_retries=2)
        ).run([tripping])
        report = result.report
        (victim,) = result.outcomes
        assert victim.attempts == 3
        assert report.retried == 2
        assert [f.attempt for f in report.failures] == [0, 1, 2]
        assert [f.failure_class for f in report.failures] == [
            "worker_crash", "worker_crash", "transient",
        ]
        assert [f.seed for f in report.failures] == [30, 30, 30]
        assert report.quarantined == 1 and not victim.ok
        assert report.quarantines[0].reason.startswith(
            "all 3 attempts failed; last: BudgetExceededError: "
        )


class TestInjectedRaise:
    def test_raise_is_classified_and_retried(self):
        plan = ChaosPlan(raise_={"f/1": (0,)})
        backend = chaotic(plan, SerialBackend())
        result = Executor(backend=backend).run(specs(3))
        report = result.report
        assert report.succeeded == 3
        (failure,) = report.failures
        assert failure.flow_id == "f/1"
        assert failure.error_type == "ChaosError"
        assert failure.failure_class == "transient"
        assert "chaos-injected failure" in failure.error

    def test_raise_is_retried_under_a_fresh_seed(self):
        # A chaos raise is transient, so its retry rolls new dice; the
        # trace records the seed that produced it.
        metadata = FlowMetadata(
            flow_id="f/0", provider="CM", technology="LTE", scenario="hsr",
            capture_month="2015-01", phone_model="Note 3", duration=2.0,
            seed=30,
        )
        flow = spec(seed=30, flow_id="f/0").with_(metadata=metadata)
        plan = ChaosPlan(raise_={"f/0": (0,)})
        result = Executor(backend=chaotic(plan, SerialBackend())).run([flow])
        (failure,) = result.report.failures
        assert (failure.attempt, failure.seed) == (0, 30)
        (trace,) = result.traces
        assert trace.metadata.seed == RetryPolicy().seed_for_attempt(30, 1)

    def test_serial_inner_is_forced_into_a_pool(self):
        # raise actions only exist in the worker-side trampoline, so a
        # raise-only plan must force the pool even for a serial inner.
        plan = ChaosPlan(raise_={"f/0": (0,)})
        assert plan.needs_pool
        backend = chaotic(plan, SerialBackend())
        result = Executor(backend=backend).run(specs(1))
        assert len(result.report.failures) == 1  # the action really fired


class TestDeadlinePreemption:
    def test_hung_flow_is_killed_and_retried(self):
        plan = ChaosPlan(hang={"f/1": (0,)}, hang_s=30.0)
        backend = chaotic(plan, ProcessPoolBackend(2), deadline_s=1.5)
        result = Executor(backend=backend).run(specs(3))
        report = result.report
        assert report.succeeded == 3
        (failure,) = report.failures
        assert failure.flow_id == "f/1"
        assert failure.failure_class == "deadline"
        assert failure.error_type == "DeadlineExceededError"
        assert "1.5s wall-clock deadline" in failure.error
        victim = next(o for o in result.outcomes if o.spec.flow_id == "f/1")
        assert victim.ok and victim.attempts == 2

    def test_bystanders_of_a_preemption_stay_clean(self):
        plan = ChaosPlan(hang={"f/0": (0,)}, hang_s=30.0)
        backend = chaotic(plan, ProcessPoolBackend(2), deadline_s=1.5)
        result = Executor(backend=backend).run(specs(4))
        assert result.report.succeeded == 4
        for outcome in result.outcomes:
            if outcome.spec.flow_id != "f/0":
                assert outcome.failures == []


class TestForcedPool:
    def test_auto_inner_runs_every_flow_in_the_forced_pool(self, monkeypatch):
        # Two CPUs make auto's inline probe eligible on any host.  The
        # chaos schedule forces a pool, so the probe must not run f/0
        # inline, out of the schedule's reach.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        plan = ChaosPlan(raise_={"f/0": (0,)})
        auto = Executor(
            backend=chaotic(plan, ProcessPoolBackend(2, auto=True))
        ).run(specs(6))
        (failure,) = auto.report.failures
        assert (failure.flow_id, failure.error_type) == ("f/0", "ChaosError")
        pool = Executor(
            backend=chaotic(plan, ProcessPoolBackend(2))
        ).run(specs(6))
        assert auto.report.to_json() == pool.report.to_json()
