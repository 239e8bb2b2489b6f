#!/usr/bin/env python
"""Micro-benchmark: the simulator core's event and packet hot paths.

Two measurements, written to ``BENCH_engine.json``:

* **events/sec** — a pure engine loop: the heap is pre-filled with
  payload events (the same ``schedule_call`` path every packet
  delivery uses) and drained, measuring raw dispatch throughput with
  no transport logic attached.
* **packets/sec** — one full HSR flow (:func:`repro.simulator.connection.run_flow`
  over the 300 km/h scenario's channels), measuring wire transmissions
  (data + ACK) per wall-clock second, plus the flow's engine
  events/sec for context.

The committed artefact is the regression baseline: ``scripts/smoke.py``
re-measures and fails when events/sec drops more than 30% below it.
Every run also appends a timestamped one-line summary to
``BENCH_history.jsonl`` next to the artefact, so throughput trends
survive artefact rewrites.

Usage::

    python benchmarks/bench_engine.py [--events 200000] [--flow-duration 30]
        [--repeats 3] [--output BENCH_engine.json]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from _common import append_history, write_artifact  # noqa: E402


def bench_event_loop(events: int, repeats: int) -> dict:
    """Drain a pre-filled heap of payload events; best of ``repeats``."""
    from repro.simulator.engine import Simulator

    def sink(payload, time):
        pass

    best = float("inf")
    for _ in range(repeats):
        sim = Simulator()
        for index in range(events):
            sim.schedule_call(index * 1e-6, sink, index)
        start = time.perf_counter()
        sim.run()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return {
        "events": events,
        "elapsed_s": round(best, 4),
        "events_per_s": round(events / best, 1),
    }


def _timed_flow(duration: float, seed: int = 20150402):
    """One freshly-built HSR flow; returns (elapsed_s, result)."""
    from repro.hsr.scenario import hsr_scenario
    from repro.simulator.connection import run_flow

    built = hsr_scenario().build(duration=duration, seed=seed)
    start = time.perf_counter()
    result = run_flow(built.config, built.data_loss, built.ack_loss, seed=seed)
    elapsed = time.perf_counter() - start
    return elapsed, result


def bench_flow(duration: float, repeats: int) -> dict:
    """One HSR flow per repeat; best wall-clock wins."""
    best = float("inf")
    packets = events = 0
    for _ in range(repeats):
        elapsed, result = _timed_flow(duration)
        if elapsed < best:
            best = elapsed
            packets = result.log.data_sent + result.log.acks_sent
            events = result.events_fired
    return {
        "scenario": "hsr/300kmh",
        "sim_duration_s": duration,
        "elapsed_s": round(best, 4),
        "packets": packets,
        "packets_per_s": round(packets / best, 1),
        "engine_events": events,
        "engine_events_per_s": round(events / best, 1),
    }


def run_benchmark(events: int, flow_duration: float, repeats: int) -> dict:
    return {
        "benchmark": "engine",
        "cpu_count": os.cpu_count(),
        "event_loop": bench_event_loop(events, repeats),
        "hsr_flow": bench_flow(flow_duration, repeats),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--events", type=int, default=200000,
                        help="payload events in the pure engine drain (default 200000)")
    parser.add_argument("--flow-duration", type=float, default=30.0,
                        help="simulated seconds for the HSR flow (default 30)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="repeats per measurement, best wins (default 3)")
    parser.add_argument("--output", default=os.path.join(REPO_ROOT, "BENCH_engine.json"),
                        help="where to write the JSON artefact")
    args = parser.parse_args(argv)

    result = run_benchmark(args.events, args.flow_duration, args.repeats)
    write_artifact(args.output, result)

    loop = result["event_loop"]
    flow = result["hsr_flow"]
    append_history(
        {
            "benchmark": "engine",
            "events_per_s": loop["events_per_s"],
            "packets_per_s": flow["packets_per_s"],
        },
        args.output,
    )
    print(f"bench: engine drain {loop['events_per_s']:,.0f} events/s "
          f"({loop['events']} events in {loop['elapsed_s']}s)")
    print(f"bench: HSR flow {flow['packets_per_s']:,.0f} packets/s, "
          f"{flow['engine_events_per_s']:,.0f} events/s "
          f"({flow['packets']} packets in {flow['elapsed_s']}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
