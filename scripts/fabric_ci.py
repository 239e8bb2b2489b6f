#!/usr/bin/env python
"""CI drill for the distributed campaign fabric.

Stands up the whole distributed stack on localhost — an HTTP store
server, a campaign coordinator, two spawned worker processes — and
runs the paper's Table-I campaign through it with a
:class:`~repro.exec.chaos.ChaosPlan` crashing one flow's first
execution; the flow is not first in its shard, so whichever worker
leases that shard dies mid-shard.  The gates:

1. the chaotic fabric run is byte-identical to a serial run (report
   JSON and every trace pickle), with at least one worker respawn
   actually observed;
2. every flow was banked in the shared store over HTTP;
3. the driver is the store's only client: the cold chaotic run of N
   flows costs exactly N GETs and N PUTs;
4. a warm rerun serves every flow from the store and never engages the
   fabric (zero processes spawned, zero flows simulated).

Writes ``FABRIC_campaign.json`` (the uploaded artefact) and exits
non-zero if any gate fails.

Usage::

    python scripts/fabric_ci.py [--flow-scale 0.05] [--duration 8]
        [--output FABRIC_campaign.json]
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))


def _trace_pickles(dataset):
    return [pickle.dumps(trace) for trace in dataset.traces]


def _fabric_campaign(flow_scale: float, duration: float, config, store_url: str):
    """One Table-I campaign on the fabric under a mid-shard crash, with
    the backend exposed so the drill can read fleet facts (respawns,
    leases) off it."""
    from repro.exec.chaos import ChaosPlan
    from repro.exec.executor import Executor
    from repro.exec.supervise import SupervisedBackend, SupervisorPolicy
    from repro.fabric import FabricBackend, ShardPlan
    from repro.store import store_scope
    from repro.traces.generator import PAPER_CAMPAIGN, SyntheticDataset, campaign_specs

    specs = campaign_specs(seed=2015, duration=duration, flow_scale=flow_scale)
    shards = ShardPlan.for_payloads(
        list(enumerate(specs)), shard_size=config.shard_size
    ).shards
    victim = next(positions for positions in shards if len(positions) > 1)[1]
    chaos = ChaosPlan(crash={specs[victim].flow_id: (0,)})
    fabric = FabricBackend(config)
    executor = Executor(
        backend=SupervisedBackend(fabric, policy=SupervisorPolicy(chaos=chaos))
    )
    start = time.perf_counter()
    with store_scope(store_url):
        execution = executor.run(specs)
    elapsed = time.perf_counter() - start
    dataset = SyntheticDataset(
        traces=execution.traces, entries=PAPER_CAMPAIGN, report=execution.report
    )
    return dataset, elapsed, fabric.last_stats


def run_drill(flow_scale: float, duration: float) -> dict:
    from repro.fabric import FabricConfig
    from repro.store import StoreServer
    from repro.traces.generator import generate_dataset

    print(f"fabric-ci: serial reference (flow_scale={flow_scale}, "
          f"duration={duration})", flush=True)
    serial = generate_dataset(seed=2015, duration=duration, flow_scale=flow_scale)
    serial_report = serial.report.to_json()
    serial_pickles = _trace_pickles(serial)

    with tempfile.TemporaryDirectory(prefix="repro-fabric-ci-") as tmp:
        with StoreServer(tmp) as server:
            print(f"fabric-ci: store server at {server.url}", flush=True)
            config = FabricConfig(
                workers=2,
                poll_s=0.02,
                lease_timeout_s=10.0,
                max_worker_restarts=6,
                announce=True,
            )
            chaotic, chaotic_s, stats = _fabric_campaign(
                flow_scale, duration, config, server.url
            )
            entries = server.store.stats().entries
            cold_gets = server.counters.get("get", 0)
            cold_puts = server.counters.get("put", 0)
            print(f"fabric-ci: chaotic run took {chaotic_s:.1f}s "
                  f"({stats['restarts']} respawns, "
                  f"{stats['leases_expired']} leases expired), "
                  f"{entries} flows banked over HTTP "
                  f"({cold_gets} GETs, {cold_puts} PUTs)", flush=True)

            warm, warm_s, warm_stats = _fabric_campaign(
                flow_scale, duration, config, server.url
            )
            server_requests = server.request_count

    flows = serial.flow_count
    gates = {
        "chaotic_report_identical": chaotic.report.to_json() == serial_report,
        "chaotic_traces_identical": _trace_pickles(chaotic) == serial_pickles,
        "crash_observed": stats["restarts"] >= 1,
        "all_flows_banked": entries == flows,
        # the driver's cache partition is the store's only client
        "one_get_per_flow": cold_gets == flows,
        "one_put_per_flow": cold_puts == flows,
        "warm_report_identical": warm.report.to_json() == serial_report,
        "warm_all_hits": warm.report.cache_hits == flows,
        "warm_simulated_nothing": warm.report.cache_misses == 0,
        # all-hits batches never reach the fabric: no servers, no procs
        "warm_fabric_untouched": warm_stats is None,
    }
    return {
        "drill": "fabric-crash-and-rejoin",
        "flows": flows,
        "flow_duration_s": duration,
        "chaotic_elapsed_s": round(chaotic_s, 4),
        "warm_elapsed_s": round(warm_s, 4),
        "worker_restarts": stats["restarts"],
        "leases_expired": stats["leases_expired"],
        "completions_rejected": stats["completions_rejected"],
        "store_entries": entries,
        "store_get_round_trips": cold_gets,
        "store_put_round_trips": cold_puts,
        "store_requests_total": server_requests,
        "gates": gates,
        "ok": all(gates.values()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--flow-scale", type=float, default=0.05)
    parser.add_argument("--duration", type=float, default=8.0)
    parser.add_argument(
        "--output", default=os.path.join(REPO_ROOT, "FABRIC_campaign.json")
    )
    args = parser.parse_args(argv)

    result = run_drill(args.flow_scale, args.duration)
    with open(args.output, "w") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"fabric-ci: wrote {args.output}", flush=True)
    for gate, passed in result["gates"].items():
        print(f"fabric-ci: gate {gate}: {'ok' if passed else 'FAIL'}", flush=True)
    if not result["ok"]:
        print("fabric-ci: FAIL — the fabric diverged from serial", file=sys.stderr)
        return 1
    print(f"fabric-ci: ok — {result['flows']} flows byte-identical through "
          "crash, rejoin, and warm rerun")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
