#!/usr/bin/env python
"""End-to-end resilience smoke test.

One command that proves the robustness path works as a system:

1. runs ``scripts/check_api.py`` — ``import repro`` in a clean
   interpreter, every ``repro.__all__`` name resolvable, every example
   under ``examples/`` importing only things that exist;
2. fills a result store with a small campaign without telemetry, then
   reruns it warm with telemetry on, and asserts the campaign counters
   equal an uncached telemetry run's in everything but
   ``cache_hit``/``cache_miss`` — counters are read off the stored
   result, never lost with the live run;
3. runs the full experiment CLI (``python -m repro.experiments all
   --scale 0.1``) under an aggressive fault plan and per-flow watchdogs,
   asserting a zero exit code and non-empty output — every experiment
   must survive injected handoff storms, deep fades, ACK blackouts and
   RTT spikes;
4. runs a campaign in-process with the same chaos plus a deliberately
   broken flow, asserting the partial dataset and a non-empty,
   deterministic :class:`~repro.robustness.campaign.CampaignReport`;
5. SIGTERMs a running store-backed campaign in a subprocess, asserting
   a graceful drain (exit ``128+SIGTERM``, completed flows flushed to
   the store, report marked interrupted) and that rerunning against
   the same store resumes exactly the missing flows with a final
   report byte-identical to a never-interrupted run;
6. runs ``benchmarks/bench_campaign.py`` (serial vs multi-process vs
   auto campaign throughput), asserting every backend agrees with
   serial and that ``BENCH_campaign.json`` is written with the auto
   backend's decision;
7. runs ``benchmarks/bench_engine.py`` and fails if engine events/sec
   regresses more than 30% against the committed ``BENCH_engine.json``
   baseline.

Usage::

    python scripts/smoke.py            # full smoke (a few minutes)
    python scripts/smoke.py --fast     # in-process campaign check only

Exits 0 on success, 1 on any failure.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
sys.path.insert(0, SRC)

CHAOS_INTENSITY = 1.0


def fail(message: str) -> "NoReturn":  # noqa: F821 - py3.8-friendly
    print(f"SMOKE FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def smoke_cli() -> None:
    """The whole experiment battery under chaos must exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    command = [
        sys.executable, "-m", "repro.experiments", "all",
        "--scale", "0.1",
        "--chaos", str(CHAOS_INTENSITY),
        "--timeout-s", "600",
        "--max-events", "50000000",
    ]
    print("smoke: running", " ".join(command), flush=True)
    completed = subprocess.run(
        command, env=env, capture_output=True, text=True, cwd=REPO_ROOT
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        fail(f"CLI exited {completed.returncode} under chaos")
    if "==" not in completed.stdout:
        fail("CLI produced no experiment reports")
    experiments = completed.stdout.count("== ")
    print(f"smoke: CLI ok — {experiments} experiment reports under chaos")


def smoke_campaign() -> None:
    """A chaotic campaign with a broken flow must degrade, not die."""
    import repro.exec.executor as executor_module
    from repro.robustness import FaultPlan, RetryPolicy, Watchdog
    from repro.traces.generator import PAPER_CAMPAIGN, generate_dataset
    from repro.util.errors import SimulationError
    from repro.util.rng import RngStream

    plan = FaultPlan.aggressive(CHAOS_INTENSITY)
    watchdog = Watchdog.default()

    # Break one flow persistently: simulate_spec raises for every seed
    # the retry policy will derive for flow index 2 of the first cell.
    # (Patching the executor module global only reaches the serial
    # backend — which is what generate_dataset uses by default.)
    policy = RetryPolicy()
    entry = PAPER_CAMPAIGN[0]
    base = (
        RngStream(2015, "dataset")
        .spawn(entry.capture_month, entry.provider.name, 2)
        .seed
        & 0x7FFFFFFF
    )
    bad_seeds = {
        policy.seed_for_attempt(base, attempt)
        for attempt in range(policy.max_attempts)
    }
    real_simulate_spec = executor_module.simulate_spec

    def breaking_simulate_spec(spec):
        if spec.seed in bad_seeds:
            raise SimulationError("smoke-injected failure")
        return real_simulate_spec(spec)

    executor_module.simulate_spec = breaking_simulate_spec
    try:
        reports = []
        for _ in range(2):  # twice: the report must be byte-identical
            dataset = generate_dataset(
                seed=2015,
                duration=10.0,
                flow_scale=0.08,  # 20 flows
                fault_plan=plan,
                watchdog=watchdog,
            )
            reports.append(dataset.report)
    finally:
        executor_module.simulate_spec = real_simulate_spec

    report = reports[0]
    print(f"smoke: campaign report — {report.summary()}")
    if report.attempted < 20:
        fail(f"campaign attempted only {report.attempted} flows")
    if not report.failures:
        fail("report is empty: the injected failure was not recorded")
    if report.quarantined != 1:
        fail(f"expected exactly 1 quarantined flow, got {report.quarantined}")
    if dataset.flow_count != report.succeeded or dataset.flow_count < 19:
        fail(
            f"partial dataset inconsistent: {dataset.flow_count} traces, "
            f"{report.succeeded} succeeded"
        )
    if reports[0].to_json() != reports[1].to_json():
        fail("campaign report is not deterministic across reruns")
    print("smoke: campaign resilience ok — degraded deterministically, no data loss")


def smoke_store() -> None:
    """A warm result store must serve a whole campaign without simulating."""
    import pickle
    import tempfile

    import repro.exec.executor as executor_module
    from repro.store import ResultStore
    from repro.traces.generator import generate_dataset

    with tempfile.TemporaryDirectory(prefix="repro-smoke-store-") as tmp:
        fresh = generate_dataset(seed=2015, duration=8.0, flow_scale=0.04)
        cold = generate_dataset(seed=2015, duration=8.0, flow_scale=0.04, store=tmp)

        calls = []
        real_simulate_spec = executor_module.simulate_spec

        def counting_simulate_spec(spec):
            calls.append(spec.flow_id)
            return real_simulate_spec(spec)

        executor_module.simulate_spec = counting_simulate_spec
        try:
            warm = generate_dataset(
                seed=2015, duration=8.0, flow_scale=0.04, store=tmp
            )
        finally:
            executor_module.simulate_spec = real_simulate_spec

        if calls:
            fail(f"warm store rerun simulated {len(calls)} flows: {calls}")
        if warm.report.cache_hits != warm.flow_count or warm.flow_count == 0:
            fail(
                f"warm run reported {warm.report.cache_hits} cache hits for "
                f"{warm.flow_count} flows"
            )
        for label, dataset in (("cold", cold), ("warm", warm)):
            if [pickle.dumps(t) for t in dataset.traces] != [
                pickle.dumps(t) for t in fresh.traces
            ]:
                fail(f"{label} store-backed traces diverge from uncached ones")
            if dataset.report.to_json() != fresh.report.to_json():
                fail(f"{label} store-backed report diverges from uncached one")
        checked, corrupt = ResultStore(tmp).verify()
        if corrupt or checked != warm.flow_count:
            fail(f"store verify: {checked} checked, {len(corrupt)} corrupt")
    print(
        f"smoke: store ok — {warm.flow_count} flows served from cache, "
        "byte-identical to uncached, store verifies clean"
    )


def smoke_bench() -> None:
    """The campaign micro-benchmark must run and emit its artefact."""
    bench = os.path.join(REPO_ROOT, "benchmarks", "bench_campaign.py")
    output = os.path.join(REPO_ROOT, "BENCH_campaign.json")
    command = [
        sys.executable, bench,
        "--flow-scale", "0.04", "--duration", "5",
        "--output", output,
    ]
    print("smoke: running", " ".join(command), flush=True)
    completed = subprocess.run(
        command, capture_output=True, text=True, cwd=REPO_ROOT
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        fail(f"bench_campaign exited {completed.returncode}")
    import json

    with open(output) as handle:
        record = json.load(handle)
    for key in ("cpu_count", "serial", "parallel", "auto", "cached",
                "speedup", "identical"):
        if key not in record:
            fail(f"BENCH_campaign.json is missing {key!r}")
    if not record["identical"]:
        fail("bench: a campaign backend diverged from serial")
    if record["serial"]["flows_per_s"] <= 0.0:
        fail("bench: non-positive serial throughput")
    decision = record["auto"]["decision"]
    if not decision or decision.get("mode") not in ("serial", "pool"):
        fail("bench: auto backend recorded no usable decision")
    print(f"smoke: bench ok — {record['serial']['flows_per_s']:.1f} flows/s serial, "
          f"speedup {record['speedup']:.2f}x with "
          f"{record['parallel']['workers']} workers, "
          f"auto chose {decision['mode']}")


def smoke_api() -> None:
    """The consolidated import surface and example imports must hold."""
    check = os.path.join(REPO_ROOT, "scripts", "check_api.py")
    command = [sys.executable, check]
    print("smoke: running", " ".join(command), flush=True)
    completed = subprocess.run(
        command, capture_output=True, text=True, cwd=REPO_ROOT
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        fail(f"check_api exited {completed.returncode}")
    print("smoke: api ok — top-level surface and example imports resolve")


def smoke_telemetry() -> None:
    """A warm telemetry rerun reports what an uncached run reports."""
    import tempfile

    from repro.context import run_context
    from repro.exec import Executor
    from repro.traces.generator import campaign_specs

    specs = campaign_specs(seed=2015, duration=8.0, flow_scale=0.05)
    uncached = Executor(telemetry=True).run(specs).telemetry
    with tempfile.TemporaryDirectory() as store_dir, run_context(store=store_dir):
        Executor().run(specs)
        warm = Executor(telemetry=True).run(specs).telemetry
    if warm.get("cache_hit") != len(specs) or uncached.get("cache_hit") != 0:
        fail(f"telemetry: {warm.get('cache_hit')} of {len(specs)} warm flows "
             "were store hits")
    for counters in (warm.counters, uncached.counters):
        counters.pop("cache_hit", None)
        counters.pop("cache_miss", None)
    if warm.to_json() != uncached.to_json():
        fail(f"telemetry: warm rerun {warm.to_json()} differs from the "
             f"uncached run {uncached.to_json()}")
    print(f"smoke: telemetry ok — warm rerun of {len(specs)} flows matches "
          f"the uncached run ({warm.summary()})")


#: the interrupted-campaign drill: flow count, sim duration each, and
#: after how many completed flows the SIGTERM lands
_SUPERVISE_FLOWS = 16
_SUPERVISE_DURATION = 8.0
_SUPERVISE_KILL_AFTER = 5

#: child process for the SIGTERM drill — a store-backed campaign that
#: receives SIGTERM mid-run (delivered deterministically after the
#: ``kill_after``-th completed flow, so the drill cannot race the
#: campaign on fast or slow machines), prints its report JSON, and
#: exits 128+signum when it was drained
_SUPERVISE_CHILD = """
import os
import signal
import sys

import repro.exec.executor as executor_module
from repro.context import run_context
from repro.exec import Executor, FlowSpec
from repro.exec.supervise import interrupt_signal
from repro.hsr import CHINA_MOBILE, hsr_scenario

store_dir = sys.argv[1]
flows, duration = int(sys.argv[2]), float(sys.argv[3])
kill_after = int(sys.argv[4])  # 0 = run to completion

completed = [0]
real_simulate_spec = executor_module.simulate_spec

def signalling_simulate_spec(spec):
    result = real_simulate_spec(spec)
    completed[0] += 1
    if kill_after and completed[0] == kill_after:
        os.kill(os.getpid(), signal.SIGTERM)
    return result

executor_module.simulate_spec = signalling_simulate_spec
specs = [
    FlowSpec(
        scenario=hsr_scenario(CHINA_MOBILE), duration=duration,
        seed=900 + i, flow_id=f"sm/{i}",
    )
    for i in range(flows)
]
with run_context(store=store_dir):
    result = Executor().run(specs)
print(result.report.to_json())
signum = interrupt_signal()
sys.exit(128 + signum if signum is not None else 0)
"""


def smoke_supervise() -> None:
    """SIGTERM a running campaign: clean drain, then an exact resume.

    The killed run must flush its completed flows to the store and
    report itself interrupted; rerunning the same campaign against the
    same store must simulate exactly the missing flows and produce a
    final report byte-identical to a never-interrupted run.
    """
    import glob
    import json
    import signal as signal_module
    import tempfile

    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )

    def run_child(store_dir, kill_after=0):
        completed = subprocess.run(
            [
                sys.executable, "-c", _SUPERVISE_CHILD, store_dir,
                str(_SUPERVISE_FLOWS), str(_SUPERVISE_DURATION),
                str(kill_after),
            ],
            env=env, cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=300,
        )
        return completed.returncode, completed.stdout.strip(), completed.stderr

    with tempfile.TemporaryDirectory(prefix="repro-smoke-drain-") as shared, \
            tempfile.TemporaryDirectory(prefix="repro-smoke-clean-") as clean:
        code, report_json, stderr = run_child(
            shared, kill_after=_SUPERVISE_KILL_AFTER
        )
        if code != 128 + signal_module.SIGTERM:
            sys.stderr.write(stderr)
            fail(f"interrupted campaign exited {code}, "
                 f"expected {128 + signal_module.SIGTERM}")
        if "draining in-flight flows" not in stderr:
            fail("drain note missing from the interrupted campaign's stderr")
        interrupted = json.loads(report_json)
        if not interrupted["interrupted"]:
            fail("killed campaign's report is not marked interrupted")
        flushed = len(glob.glob(os.path.join(shared, "*", "*.json.gz")))
        if not 0 < flushed < _SUPERVISE_FLOWS:
            fail(f"expected a partial store after SIGTERM, found {flushed} "
                 f"of {_SUPERVISE_FLOWS} entries")
        if interrupted["attempted"] != flushed:
            fail(f"report says {interrupted['attempted']} attempted but "
                 f"{flushed} entries were flushed")

        code, resumed_json, stderr = run_child(shared)
        if code != 0:
            sys.stderr.write(stderr)
            fail(f"resumed campaign exited {code}")
        code, clean_json, stderr = run_child(clean)
        if code != 0:
            sys.stderr.write(stderr)
            fail(f"uninterrupted reference campaign exited {code}")
        if resumed_json != clean_json:
            fail("resumed report diverges from the uninterrupted run's")
        if json.loads(resumed_json)["interrupted"]:
            fail("resumed campaign still reports itself interrupted")
    print(
        f"smoke: supervise ok — SIGTERM drained cleanly after "
        f"{flushed}/{_SUPERVISE_FLOWS} flows, resume byte-matched the "
        "uninterrupted report"
    )


#: fractional events/sec regression tolerated against the committed
#: BENCH_engine.json baseline before the smoke test fails
ENGINE_REGRESSION_TOLERANCE = 0.30


def smoke_engine_bench() -> None:
    """Engine throughput must stay within 30% of the committed baseline."""
    import json

    baseline_path = os.path.join(REPO_ROOT, "BENCH_engine.json")
    if not os.path.exists(baseline_path):
        fail("BENCH_engine.json baseline is missing — run "
             "benchmarks/bench_engine.py and commit the artefact")
    with open(baseline_path) as handle:
        baseline = json.load(handle)

    bench = os.path.join(REPO_ROOT, "benchmarks", "bench_engine.py")
    output = os.path.join(REPO_ROOT, "BENCH_engine.current.json")
    command = [
        sys.executable, bench,
        "--events", "100000", "--flow-duration", "10", "--repeats", "4",
        "--output", output,
    ]
    print("smoke: running", " ".join(command), flush=True)
    completed = subprocess.run(
        command, capture_output=True, text=True, cwd=REPO_ROOT
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        fail(f"bench_engine exited {completed.returncode}")
    try:
        with open(output) as handle:
            current = json.load(handle)
    finally:
        if os.path.exists(output):
            os.remove(output)

    # events/sec is a rate, so the comparison is fair even though the
    # smoke run uses a smaller event count than the committed baseline.
    checks = [
        ("event loop", baseline["event_loop"]["events_per_s"],
         current["event_loop"]["events_per_s"]),
        ("hsr flow", baseline["hsr_flow"]["engine_events_per_s"],
         current["hsr_flow"]["engine_events_per_s"]),
    ]
    for label, base_rate, current_rate in checks:
        floor = base_rate * (1.0 - ENGINE_REGRESSION_TOLERANCE)
        if current_rate < floor:
            fail(
                f"engine regression ({label}): {current_rate:,.0f} events/s "
                f"is more than {ENGINE_REGRESSION_TOLERANCE:.0%} below the "
                f"committed baseline {base_rate:,.0f} events/s"
            )
        print(f"smoke: engine {label} ok — {current_rate:,.0f} events/s "
              f"(baseline {base_rate:,.0f}, floor {floor:,.0f})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fast", action="store_true",
        help="skip the full CLI battery, run only the in-process "
             "campaign check and the micro-benchmark",
    )
    args = parser.parse_args()
    smoke_api()
    smoke_telemetry()
    smoke_campaign()
    smoke_store()
    smoke_supervise()
    smoke_bench()
    smoke_engine_bench()
    if not args.fast:
        smoke_cli()
    print("SMOKE PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
