#!/usr/bin/env python
"""Micro-benchmark: campaign throughput across executor backends.

Runs the same miniature paper campaign through the flow executor — on
the ``SerialBackend``, on a multi-process ``ProcessPoolBackend``, on
the ``AutoBackend`` (which probes the batch and picks serial or pool
itself), twice through a throw-away ``ResultStore`` (a cold populating
run, then a warm all-hits one), and on the campaign fabric — and
reports flows/sec for each, the serial→pool speedup, the auto
backend's recorded decision, and the warm-cache speedup, in
``BENCH_campaign.json``.  Each run also appends a
timestamped one-line summary to ``BENCH_history.jsonl``.

All runs must produce identical traces and an identical campaign
report (that is the executor's determinism contract, and this script
asserts it), so the timings compare pure execution cost.  The speedup
itself is machine-dependent, which is why ``cpu_count`` leads the
artefact: on a single-core container a process pool only adds spawn
overhead, and a "slowdown" there is a fact about the host, not the
backend.  The parallel leg therefore defaults to
``min(4, os.cpu_count())`` workers — benchmarking 4 spawned processes
on 1 CPU measures oversubscription, nothing else.

Usage::

    python benchmarks/bench_campaign.py [--flow-scale 0.2]
        [--duration 20] [--workers N] [--cc bbr]
        [--output BENCH_campaign.json]

The ``--cc`` flag points every leg at another registered congestion
control (see ``python -m repro.cc list``); the identity gate is the
same, so the determinism contract is benchmarked — and enforced — for
the whole zoo, not just Reno.
"""

from __future__ import annotations

import argparse
import os
import pickle
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from _common import append_history, write_artifact  # noqa: E402


def _timed_campaign(flow_scale: float, duration: float, workers, cc: str):
    from repro.traces.generator import generate_dataset

    start = time.perf_counter()
    dataset = generate_dataset(
        seed=2015, duration=duration, flow_scale=flow_scale, workers=workers, cc=cc
    )
    elapsed = time.perf_counter() - start
    return dataset, elapsed


def _timed_auto_campaign(flow_scale: float, duration: float, cc: str):
    """The auto leg, run through an explicit backend so the probe's
    decision record can be captured for the artefact."""
    from repro.exec import AutoBackend, Executor
    from repro.traces.generator import PAPER_CAMPAIGN, SyntheticDataset, campaign_specs

    backend = AutoBackend()
    start = time.perf_counter()
    specs = campaign_specs(seed=2015, duration=duration, flow_scale=flow_scale, cc=cc)
    execution = Executor(backend=backend).run(specs)
    elapsed = time.perf_counter() - start
    dataset = SyntheticDataset(
        traces=execution.traces, entries=PAPER_CAMPAIGN, report=execution.report
    )
    return dataset, elapsed, backend.last_decision


def _timed_cached_campaign(flow_scale: float, duration: float, cc: str):
    """Cold (populate) then warm (all hits) run through a ResultStore."""
    import tempfile

    from repro.traces.generator import generate_dataset

    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as tmp:
        start = time.perf_counter()
        generate_dataset(
            seed=2015, duration=duration, flow_scale=flow_scale, store=tmp, cc=cc
        )
        cold_s = time.perf_counter() - start
        start = time.perf_counter()
        warm_dataset = generate_dataset(
            seed=2015, duration=duration, flow_scale=flow_scale, store=tmp, cc=cc
        )
        warm_s = time.perf_counter() - start
    return warm_dataset, cold_s, warm_s


def _timed_fabric_campaign(flow_scale: float, duration: float, cc: str):
    """The fabric leg: two worker processes over HTTP, an in-process
    store server behind the driver — the distributed stack end to end,
    with store round-trips counted on the server (the driver is the
    store's only client: one GET and one PUT per flow)."""
    import tempfile

    from repro.fabric import FabricConfig, fabric_scope
    from repro.store import StoreServer
    from repro.traces.generator import generate_dataset

    with tempfile.TemporaryDirectory(prefix="repro-bench-fabric-") as tmp:
        with StoreServer(tmp) as server:
            config = FabricConfig(workers=2, poll_s=0.02)
            start = time.perf_counter()
            with fabric_scope(config):
                dataset = generate_dataset(
                    seed=2015, duration=duration, flow_scale=flow_scale,
                    workers="fabric", store=server.url, cc=cc,
                )
            elapsed = time.perf_counter() - start
            round_trips = server.request_count
    return dataset, elapsed, round_trips


def _trace_pickles(dataset):
    # Compare per trace: a batched pickle would differ through memo
    # references shared in-process, not through any value drift.
    return [pickle.dumps(trace) for trace in dataset.traces]


def run_benchmark(
    flow_scale: float = 0.2, duration: float = 20.0, workers=None, cc: str = "reno"
) -> dict:
    cpu_count = os.cpu_count() or 1
    if workers is None:
        workers = min(4, cpu_count)
    serial_dataset, serial_s = _timed_campaign(flow_scale, duration, 1, cc)
    parallel_dataset, parallel_s = _timed_campaign(flow_scale, duration, workers, cc)
    auto_dataset, auto_s, auto_decision = _timed_auto_campaign(flow_scale, duration, cc)
    warm_dataset, cold_s, warm_s = _timed_cached_campaign(flow_scale, duration, cc)
    fabric_dataset, fabric_s, fabric_round_trips = _timed_fabric_campaign(
        flow_scale, duration, cc
    )

    serial_pickles = _trace_pickles(serial_dataset)
    serial_report = serial_dataset.report.to_json()
    identical = (
        serial_report == parallel_dataset.report.to_json()
        and serial_pickles == _trace_pickles(parallel_dataset)
        and serial_report == auto_dataset.report.to_json()
        and serial_pickles == _trace_pickles(auto_dataset)
        and serial_report == warm_dataset.report.to_json()
        and serial_pickles == _trace_pickles(warm_dataset)
        and serial_report == fabric_dataset.report.to_json()
        and serial_pickles == _trace_pickles(fabric_dataset)
    )
    flows = serial_dataset.flow_count
    return {
        "benchmark": "campaign",
        "cpu_count": cpu_count,
        "cc": cc,
        "flows": flows,
        "flow_duration_s": duration,
        "serial": {
            "elapsed_s": round(serial_s, 4),
            "flows_per_s": round(flows / serial_s, 4) if serial_s else 0.0,
        },
        "parallel": {
            "workers": workers,
            "elapsed_s": round(parallel_s, 4),
            "flows_per_s": round(flows / parallel_s, 4) if parallel_s else 0.0,
        },
        "auto": {
            "elapsed_s": round(auto_s, 4),
            "flows_per_s": round(flows / auto_s, 4) if auto_s else 0.0,
            "decision": auto_decision,
        },
        "cached": {
            "cold_elapsed_s": round(cold_s, 4),
            "warm_elapsed_s": round(warm_s, 4),
            "warm_flows_per_s": round(flows / warm_s, 4) if warm_s else 0.0,
            "warm_hits": warm_dataset.report.cache_hits,
            "warm_speedup": round(serial_s / warm_s, 4) if warm_s else 0.0,
        },
        "fabric": {
            "workers": 2,
            "elapsed_s": round(fabric_s, 4),
            "flows_per_s": round(flows / fabric_s, 4) if fabric_s else 0.0,
            "store_round_trips": fabric_round_trips,
            "speedup": round(serial_s / fabric_s, 4) if fabric_s else 0.0,
        },
        "speedup": round(serial_s / parallel_s, 4) if parallel_s else 0.0,
        "identical": identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--flow-scale", type=float, default=0.2,
                        help="campaign flow_scale (default 0.2, ~50 flows)")
    parser.add_argument("--duration", type=float, default=20.0,
                        help="per-flow simulated seconds (default 20)")
    parser.add_argument("--workers", type=int, default=None,
                        help="process count for the parallel run "
                             "(default min(4, cpu_count))")
    parser.add_argument("--cc", default="reno",
                        help="congestion control for every leg (default "
                             "reno; any registered repro.cc name — the "
                             "identity gate applies to all of them)")
    parser.add_argument("--output", default=os.path.join(REPO_ROOT, "BENCH_campaign.json"),
                        help="where to write the JSON artefact")
    args = parser.parse_args(argv)

    result = run_benchmark(args.flow_scale, args.duration, args.workers, args.cc)
    write_artifact(args.output, result)
    append_history(
        {
            "benchmark": "campaign",
            "cc": result["cc"],
            "flows": result["flows"],
            "serial_flows_per_s": result["serial"]["flows_per_s"],
            "parallel_flows_per_s": result["parallel"]["flows_per_s"],
            "auto_mode": result["auto"]["decision"].get("mode")
            if result["auto"]["decision"]
            else None,
            "fabric_flows_per_s": result["fabric"]["flows_per_s"],
            "fabric_store_round_trips": result["fabric"]["store_round_trips"],
        },
        args.output,
    )

    print(f"bench: {result['cpu_count']} cpus, {result['flows']} flows "
          f"[{result['cc']}] — "
          f"serial {result['serial']['flows_per_s']:.2f} flows/s, "
          f"{result['parallel']['workers']} workers "
          f"{result['parallel']['flows_per_s']:.2f} flows/s "
          f"(speedup {result['speedup']:.2f}x), "
          f"auto {result['auto']['flows_per_s']:.2f} flows/s "
          f"[{result['auto']['decision']['mode']}], "
          f"warm cache {result['cached']['warm_flows_per_s']:.2f} flows/s "
          f"({result['cached']['warm_speedup']:.2f}x), "
          f"fabric {result['fabric']['flows_per_s']:.2f} flows/s "
          f"({result['fabric']['store_round_trips']} store round-trips)")
    if not result["identical"]:
        print("bench: FAIL — backend runs diverged from serial", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
