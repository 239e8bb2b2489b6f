#!/usr/bin/env python3
"""Campaign benchmark: the Table-I campaign on four execution paths.

Every workload runs the same batch, ``campaign_specs(seed, duration=20,
flow_scale=0.2)`` (51 Reno flows over the four provider cells of the
300 km/h HSR scenarios, validated), as a closed loop: one caller submits
the whole batch and waits for it.

* ``serial`` — one process, no store: the simulator hot path.
* ``pool``   — ``min(2, nproc)`` spawn workers: process boundary costs.
* ``cold``   — serial into a fresh, empty result store per rep: the
  store's write path beside full simulation.
* ``warm``   — serial from a store filled before timing: the read path
  alone; the simulator never runs.

Usage (from the repository root)::

    python3 campaignbench/bench.py                  # full pass, all workloads
    python3 campaignbench/bench.py --workload warm --seed 7 --seconds 10 --trace 0
    python3 campaignbench/bench.py --quick          # 1 rep of 4 flows x 2 s

A single-workload run prints its metrics, then one JSON line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.  A
full pass runs every workload twice (untraced and traced), each in a
fresh interpreter, checks that all four reproduce one result digest,
and writes a pass file under ``campaignbench/out/`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import multiprocessing
import os
import pickle
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import zlib
from array import array
from dataclasses import asdict
from operator import attrgetter
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
DIGESTS = os.path.join(HERE, "digests.json")

WORKLOADS = ("serial", "pool", "cold", "warm")
DEFAULT_SEED = 2015
#: (simulated seconds per flow, flow_scale) of the timed batch; the
#: warm-up campaign is the same shape as ``--quick``: 1 flow per cell
CAMPAIGN = (20.0, 0.2)
WARMUP = (2.0, 0.01)
#: fresh interpreters whose median is ``setup_s``
SETUP_INTERPRETERS = 3
#: seconds ``_calibration_task`` takes on the 2-CPU reference host at its
#: fast speed; every reported time is scaled to that speed (HostSpeed)
CALIBRATION_REFERENCE_S = 0.020
CALIBRATION_ROUNDS = 4
#: a campaign slows by less than the calibration task when the host
#: slows; with this power of the task's slowdown, 10-run spreads over
#: a dozen sets of runs were lowest (exponents 0.5-0.75; 1 over-corrects)
CALIBRATION_EXPONENT = 0.75


class BenchError(RuntimeError):
    """The benchmark could not run as specified."""


def _import_repro() -> None:
    # Checked explicitly so a directory without the source tree fails
    # loudly instead of importing some other installed ``repro``.
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"bench: no repro package under {SRC}; run from a checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def _workers(workload: str) -> int:
    return min(2, os.cpu_count() or 1) if workload == "pool" else 1


def _specs(seed: int, shape: tuple) -> list:
    from repro.traces.generator import campaign_specs

    return campaign_specs(seed=seed, duration=shape[0], flow_scale=shape[1])


def run_campaign(workers: int, specs: list, store: Optional[str] = None):
    """One campaign: the region every timed rep measures."""
    from repro.exec import Executor
    from repro.store import store_scope

    executor = Executor.for_workers(workers)
    if store is None:
        return executor.run(specs)
    with store_scope(store):
        return executor.run(specs)


def _reap_children(timeout: float = 60.0) -> None:
    """Wait until every worker process of this process has exited."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise BenchError("worker processes did not exit")
        time.sleep(0.01)


def _stop_processes() -> None:
    """Reap workers, then stop the semaphore tracker that the first
    spawn pool started, so no helper process outlives the run."""
    from multiprocessing import resource_tracker

    _reap_children()
    gc.collect()  # release pool semaphores before the tracker stops
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


# -- host speed --------------------------------------------------------


def _calibration_task() -> float:
    """A fixed task that uses no repro code: 6000 small records through
    JSON, zlib and a heap, the kinds of work a campaign does."""
    rng = random.Random(DEFAULT_SEED)
    rows = [{"t": rng.random(), "seq": i, "flag": i % 7 == 0} for i in range(6000)]
    blob = zlib.compress(json.dumps(rows).encode(), 1)
    heap: list = []
    total = 0.0
    for row in json.loads(zlib.decompress(blob)):
        heapq.heappush(heap, (row["t"], row["seq"]))
        if row["flag"]:
            total += heapq.heappop(heap)[0]
    return total


def run_cpus(workers: int) -> List[int]:
    """The CPUs a run uses and calibrates on.

    A single-process workload is pinned to one CPU, so that its reps,
    setup probes (which inherit the pin) and calibrations share it: the
    host slows its CPUs separately.  The pool keeps every CPU.
    """
    if not hasattr(os, "sched_setaffinity"):
        return []
    cpus = sorted(os.sched_getaffinity(0))
    if workers == 1:
        cpus = cpus[-1:]
        os.sched_setaffinity(0, cpus)
    return cpus


def _calibration_rounds(cpus: List[int]) -> List[float]:
    """Times of ``CALIBRATION_ROUNDS`` calibration tasks, collector off,
    taking the CPUs in ``cpus`` in turn."""
    affinity = os.sched_getaffinity(0) if cpus else None
    times = []
    gc.disable()
    try:
        for index in range(CALIBRATION_ROUNDS):
            if len(cpus) > 1:
                os.sched_setaffinity(0, {cpus[index % len(cpus)]})
            start = time.perf_counter()
            _calibration_task()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
        if affinity is not None:
            os.sched_setaffinity(0, affinity)
    return times


class HostSpeed:
    """Times measured on a drifting host, scaled to the reference speed.

    The bench host's speed changes by up to 2x for seconds to minutes
    at a time, so raw times of runs made minutes apart differ by more
    than any change they should detect.  The calibration task slows
    with the host: each measurement is bracketed by calibration rounds
    on the run's CPUs and scaled by ``CALIBRATION_REFERENCE_S`` over
    their median, to the power ``CALIBRATION_EXPONENT``.
    """

    def __init__(self, cpus: List[int]) -> None:
        self.cpus = cpus
        #: calibration seconds (median of its rounds) per measurement
        self.calibrations: List[float] = []

    def measure(self, run) -> tuple:
        """``run() -> (result, seconds)`` between two sets of rounds;
        returns ``(result, raw seconds, seconds at reference speed)``."""
        rounds = _calibration_rounds(self.cpus)
        result, elapsed = run()
        calibration = statistics.median(rounds + _calibration_rounds(self.cpus))
        self.calibrations.append(calibration)
        scale = (CALIBRATION_REFERENCE_S / calibration) ** CALIBRATION_EXPONENT
        return result, elapsed, elapsed * scale


# -- result digest -----------------------------------------------------

_DATA = (
    "transmission_id", "seq", "send_time", "arrival_time", "dropped",
    "is_retransmission", "in_timeout_recovery", "subflow_id",
)
_ACK = (
    "transmission_id", "ack_seq", "send_time", "arrival_time", "dropped",
    "is_duplicate", "subflow_id",
)
_TIMEOUT = ("time", "seq", "backoff_exponent", "rto_value", "sequence_index")
_PHASE = ("start_time", "end_time", "timeouts", "retransmissions", "retransmissions_lost")
#: fields that may hold None
_OPTIONAL = frozenset({"arrival_time", "end_time"})
_NAN = float("nan")


def _fig10_means(traces: list) -> Optional[Dict[str, float]]:
    """Mean deviation D of the enhanced and Padhye models (Fig. 10)."""
    from repro.core.accuracy import FlowObservation, compare_models
    from repro.core.enhanced import (
        ModelOptions,
        enhanced_throughput,
        padhye_paper_form,
    )
    from repro.traces.correlation import measured_model_inputs

    inputs = [m for m in map(measured_model_inputs, traces) if m is not None]
    if not inputs:
        return None
    observations = [
        FlowObservation(
            params=m.params, throughput=m.throughput, group=m.provider, flow_id=m.flow_id
        )
        for m in inputs
    ]
    burst = {id(o.params): m.ack_burst_probability for o, m in zip(observations, inputs)}

    def enhanced(params) -> float:
        options = ModelOptions(ack_burst_override=burst[id(params)])
        return enhanced_throughput(params, options).throughput

    def padhye(params) -> float:
        return padhye_paper_form(params).throughput

    comparison = compare_models(observations, {"enhanced": enhanced, "padhye": padhye})
    return {
        "enhanced_mean_D": comparison.mean_deviation("enhanced"),
        "padhye_mean_D": comparison.mean_deviation("padhye"),
    }


def _hash_records(hasher, records: list, fields: tuple) -> None:
    """Hash a record list as its length, then one column per field of
    little-endian float64 values (ints and bools exactly, None as NaN)."""
    hasher.update(len(records).to_bytes(8, "little"))
    for field in fields:
        column = map(attrgetter(field), records)
        if field in _OPTIONAL:
            column = (_NAN if value is None else value for value in column)
        values = array("d", column)
        if sys.byteorder == "big":
            values.byteswap()
        hasher.update(values.tobytes())


def result_digest(execution) -> str:
    """sha256 of a campaign's results.

    It hashes the canonical JSON (sorted keys, compact) of
    ``{"fig10", "report", "table1"}``: the Fig. 10 mean deviations,
    ``report.to_json()`` and the Table-I rows.  Then, per trace, the
    canonical JSON of its metadata and payload counts, and each record
    list's fields read through public attributes as float64 columns
    (``_hash_records``).  No pickles and no container types are hashed,
    so any representation of the records with the same values gives
    the same digest.  Columns rather than JSON numbers keep the hash of
    ~0.4M records to a fraction of a second.
    """
    from repro.traces.dataset import table1_rows
    from repro.traces.generator import PAPER_CAMPAIGN, SyntheticDataset

    traces = execution.traces
    dataset = SyntheticDataset(traces=traces, entries=PAPER_CAMPAIGN)
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    hasher = hashlib.sha256()
    hasher.update(
        (
            '{"fig10":' + encode(_fig10_means(traces))
            + ',"report":' + execution.report.to_json()
            + ',"table1":' + encode([asdict(row) for row in table1_rows(dataset)])
            + "}"
        ).encode()
    )
    for trace in traces:
        hasher.update(encode({
            "delivered_payloads": trace.delivered_payloads,
            "duplicate_payloads": trace.duplicate_payloads,
            "metadata": asdict(trace.metadata),
        }).encode())
        _hash_records(hasher, trace.data_packets, _DATA)
        _hash_records(hasher, trace.acks, _ACK)
        _hash_records(hasher, trace.timeouts, _TIMEOUT)
        _hash_records(hasher, trace.recovery_phases, _PHASE)
    return hasher.hexdigest()


def pinned_digest(seed: int, shape: tuple) -> Optional[str]:
    with open(DIGESTS) as handle:
        pinned = json.load(handle)
    return pinned.get(f"{shape[0]}x{shape[1]}", {}).get(str(seed))


# -- one workload ------------------------------------------------------


class Campaign:
    """One workload's batch, its stores and its correctness tally."""

    def __init__(self, workload: str, specs: list, work: str) -> None:
        self.workload = workload
        self.workers = _workers(workload)
        self.specs = specs
        self.work = work
        self.reference: Optional[str] = None
        self.digest: Optional[str] = None
        self.attempted = 0
        self.failed = 0
        #: packet records (data + ACK) in the campaign's traces: the
        #: work every layer scales with, which varies with the seed
        self.records = 0
        self.warm_store: Optional[str] = None
        self._stores = 0

    def fill(self) -> None:
        """Fill the warm workload's store, untimed; its digest is a
        reference when none is pinned."""
        self.warm_store = self.fresh_dir("warm-store")
        execution = run_campaign(1, self.specs, self.warm_store)
        if self.reference is None:
            self.reference = result_digest(execution)

    def store(self) -> Optional[str]:
        """The store a rep runs against (made untimed)."""
        if self.workload == "cold":
            return self.fresh_dir("cold-store")
        return self.warm_store

    def rep(self, store: Optional[str]):
        start = time.perf_counter()
        execution = run_campaign(self.workers, self.specs, store)
        wall = time.perf_counter() - start
        _reap_children()
        return execution, wall

    def check(self, execution, store: Optional[str]) -> bool:
        """Count the rep's flows and verify them against the reference.

        A quarantined flow fails; a rep whose digest differs fails
        every flow it ran.
        """
        report = execution.report
        digest = result_digest(execution)
        if self.reference is None:
            self.reference = digest
        self.digest = digest
        self.records = sum(len(t.data_packets) + len(t.acks) for t in execution.traces)
        flows = len(self.specs)
        self.attempted += flows
        ok = digest == self.reference and report.attempted == flows
        self.failed += report.quarantined if ok else flows
        if store is not None and store != self.warm_store:
            shutil.rmtree(store, ignore_errors=True)
        return ok and report.quarantined == 0

    def fresh_dir(self, name: str) -> str:
        self._stores += 1
        path = os.path.join(self.work, f"{name}-{self._stores}")
        os.makedirs(path)
        return path


def warm_up(workload: str, seed: int, store: Optional[str]):
    """The untimed warm-up campaign on the workload's own path."""
    return run_campaign(_workers(workload), _specs(seed, WARMUP), store)


def warm_up_store(seed: int, work: str) -> str:
    """A store holding the warm-up campaign, for the warm path to read."""
    path = os.path.join(work, "warm-up-store")
    run_campaign(1, _specs(seed, WARMUP), path)
    return path


def setup_seconds(workload: str, seed: int, store: Optional[str]) -> float:
    """Seconds from a fresh interpreter to the end of its warm-up.

    ``store`` is what that warm-up reads or fills: the filled warm-up
    store on the warm path, a fresh empty one on the cold path.
    """
    command = [
        sys.executable, os.path.abspath(__file__), "--setup-probe",
        "--workload", workload, "--seed", str(seed),
    ]
    if store is not None:
        command += ["--store", store]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as probe:
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - start
        probe.stdout.read()
    if line.strip() != "ready" or probe.returncode != 0:
        raise BenchError(f"setup probe for {workload} failed")
    return elapsed


def _import_exec() -> None:
    import repro.exec  # noqa: F401


def spawn_seconds(workers: int) -> float:
    """Seconds to start ``workers`` spawn processes that import repro.exec."""
    context = multiprocessing.get_context("spawn")
    start = time.perf_counter()
    processes = [context.Process(target=_import_exec) for _ in range(workers)]
    for process in processes:
        process.start()
    for process in processes:
        process.join()
    elapsed = time.perf_counter() - start
    if any(process.exitcode != 0 for process in processes):
        raise BenchError("spawn probe worker failed")
    return elapsed


def pickle_costs(outcomes: list) -> Dict[str, float]:
    """Bytes and milliseconds per outcome across a process boundary."""
    from multiprocessing.reduction import ForkingPickler

    start = time.perf_counter()
    blobs = [ForkingPickler.dumps(outcome) for outcome in outcomes]
    dumped = time.perf_counter() - start
    start = time.perf_counter()
    for blob in blobs:
        pickle.loads(blob)
    loaded = time.perf_counter() - start
    flows = len(outcomes)
    return {
        "exec.pickle.bytes_per_flow": sum(len(blob) for blob in blobs) / flows,
        "exec.pickle.ms_per_flow": 1e3 * dumped / flows,
        "exec.unpickle.ms_per_flow": 1e3 * loaded / flows,
    }


def _per(amount: float, count: float) -> float:
    return amount / count if count else 0.0


def layer_metrics(tracer, flows: int) -> Dict[str, float]:
    """Per-layer metrics from a traced rep's totals."""
    self_s = tracer.self_seconds
    units = tracer.units
    calls = tracer.calls
    per_flow_ms = {
        "simulator.flow.self_ms_per_flow": "simulator.flow",
        "traces.capture.ms_per_flow": "traces.capture",
        "exec.resolve.ms_per_flow": "exec.resolve",
        "exec.executor.self_ms_per_flow": "exec.executor",
        "exec.supervise.self_ms_per_flow": "exec.supervise",
        "store.key.ms_per_flow": "store.key",
        "store.encode.ms_per_flow": "store.encode",
        "store.entry_encode.ms_per_flow": "store.entry_encode",
        "store.put.ms_per_flow": "store.put",
        "store.load.self_ms_per_flow": "store.load",
        "store.entry_decode.ms_per_flow": "store.entry_decode",
        "store.decode.self_ms_per_flow": "store.decode",
    }
    metrics = {
        "simulator.engine.events_per_flow": units("simulator.engine") / flows,
        "simulator.engine.self_us_per_event": 1e6
        * _per(self_s("simulator.engine"), units("simulator.engine")),
        "simulator.loss.packets_per_call": _per(
            units("simulator.loss"), calls("simulator.loss")
        ),
        "simulator.loss.self_us_per_packet": 1e6
        * _per(self_s("simulator.loss"), units("simulator.loss")),
        "simulator.link.self_us_per_packet": 1e6
        * _per(self_s("simulator.link"), units("simulator.link")),
        "simulator.sender.self_us_per_call": 1e6
        * _per(self_s("simulator.sender"), calls("simulator.sender")),
        "simulator.receiver.self_us_per_segment": 1e6
        * _per(self_s("simulator.receiver"), calls("simulator.receiver")),
        "simulator.flowlog.records_per_flow": calls("simulator.flowlog") / flows,
        "simulator.flowlog.self_us_per_record": 1e6
        * _per(self_s("simulator.flowlog"), calls("simulator.flowlog")),
        "store.entry_bytes_per_flow": (
            units("store.entry_encode") + units("store.entry_decode")
        ) / flows,
    }
    for name, layer in per_flow_ms.items():
        metrics[name] = 1e3 * self_s(layer) / flows
    return metrics


def _quartiles(values: List[float]) -> Dict[str, object]:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"value": median, "q1": q1, "q3": q3, "n": len(values), "samples": values}


def measure(args, work: str) -> dict:
    """Run one workload as ``args`` asks; the detail record."""
    workload, seed = args.workload, args.seed
    shape = WARMUP if args.quick else CAMPAIGN
    campaign = Campaign(workload, _specs(seed, shape), work)
    campaign.reference = pinned_digest(seed, shape)
    flows = len(campaign.specs)

    speed = HostSpeed(run_cpus(campaign.workers))

    # Untimed warm-up on the workload's own path, cross-checked against
    # a serial warm-up: agreement across paths for any seed.
    warm_up_read = warm_up_store(seed, work) if workload == "warm" else None
    warm_up_path = campaign.fresh_dir("warm-up") if workload == "cold" else warm_up_read
    warm_up_ok = result_digest(warm_up(workload, seed, warm_up_path)) == result_digest(
        warm_up("serial", seed, None)
    )
    _reap_children()

    record: dict = {"workload": workload, "seed": seed, "trace": args.trace,
                    "nproc": os.cpu_count(), "flows": flows}
    setup: List[float] = []
    setup_count = 0 if args.trace else 2 if args.quick else SETUP_INTERPRETERS

    def probe_setup() -> None:
        store = campaign.fresh_dir("setup-store") if workload == "cold" else warm_up_read
        _, _, seconds = speed.measure(lambda: (None, setup_seconds(workload, seed, store)))
        setup.append(seconds)

    if workload == "warm":
        campaign.fill()

    # Setup probes run between reps rather than back to back, so they
    # sample the host across the whole run, not one moment of it.
    raw_walls: List[float] = []
    walls: List[float] = []
    ok = warm_up_ok
    start = time.perf_counter()
    while len(walls) < args.reps or time.perf_counter() - start < args.seconds:
        store = campaign.store()
        execution, raw, wall = speed.measure(lambda: campaign.rep(store))
        raw_walls.append(raw)
        walls.append(wall)
        ok = campaign.check(execution, store) and ok
        execution = None  # the next rep must not run beside this one's results
        if len(setup) < setup_count:
            probe_setup()
    while len(setup) < setup_count:
        probe_setup()
    record["raw_wall_s"] = _quartiles(raw_walls)
    record["wall_s"] = _quartiles(walls)
    record["calibration_s"] = _quartiles(speed.calibrations)
    record["records"] = campaign.records

    if args.trace:
        ok = traced_rep(campaign, speed, record["wall_s"]["value"], record) and ok
    else:
        peak_kb = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        record["metrics"] = {
            "records_per_s": dict(
                _quartiles([campaign.records / wall for wall in walls]),
                unit="records/s",
            ),
            "setup_s": dict(_quartiles(setup), unit="s"),
            "peak_rss_bytes_per_record": dict(
                _quartiles([1024.0 * peak_kb / campaign.records]), unit="B/record"
            ),
        }
    record.update(
        digest=campaign.digest,
        correct=ok,
        attempted=campaign.attempted,
        failed=campaign.failed,
    )
    return record


def traced_rep(
    campaign: Campaign, speed: HostSpeed, untraced_wall: float, record: dict
) -> bool:
    """One more rep under the tracer; per-layer metrics into ``record``.

    Returns whether the traced rep's results were correct.
    """
    from layers import (
        Tracer,
        install_campaign_layers,
        measure_span_costs,
        traced_pool_workers,
    )

    flows = len(campaign.specs)
    tracer = Tracer(costs=measure_span_costs())
    spool = campaign.fresh_dir("spool")
    store = campaign.store()
    with tracer:
        install_campaign_layers(tracer)
        if campaign.workers > 1:
            traced_pool_workers(tracer, spool)
        execution, raw_traced_wall, traced_wall = speed.measure(lambda: campaign.rep(store))
    record["worker_dumps"] = tracer.merge_spool(spool)
    ok = campaign.check(execution, store)
    values = layer_metrics(tracer, flows)
    values.update(pickle_costs(execution.outcomes))
    values["store.hit_ratio"] = execution.report.cache_hits / flows
    execution = None
    values["exec.spawn.s"] = spawn_seconds(_workers("pool"))
    efficiency = 1.0  # one process does all the work
    if campaign.workers > 1:
        serial = Campaign("serial", campaign.specs, campaign.work)
        _, _, serial_wall = speed.measure(lambda: serial.rep(None))
        efficiency = serial_wall / (untraced_wall * campaign.workers)
    values["exec.pool.efficiency"] = efficiency
    values["trace.overhead_pct"] = 100.0 * (traced_wall / untraced_wall - 1.0)
    record["layers"] = {
        layer: {
            "calls": tracer.calls(layer),
            "self_s": tracer.self_seconds(layer),
            "share_pct": 100.0 * tracer.self_seconds(layer) / raw_traced_wall,
        }
        for layer in sorted(tracer.totals)
    }
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        per_layer = json.load(handle)["per_layer"]
    record["metrics"] = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in per_layer
    }
    return ok


def print_record(record: dict) -> None:
    raw = record["raw_wall_s"]["value"]
    speed = CALIBRATION_REFERENCE_S / record["calibration_s"]["value"]
    print(f"bench: {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"nproc={record['nproc']} digest={record['digest']}")
    print(f"  campaign: {record['flows']} flows, {record['records']} records, "
          f"raw median wall {raw:.3f} s = {record['flows'] / raw:.3f} flows/s; "
          f"calibration task at {speed:.3f} of reference speed")
    for name, metric in record["metrics"].items():
        line = f"  {name:40s} {metric['value']:14.6g} {metric['unit']}"
        if "q1" in metric:
            line += f"  [q1 {metric['q1']:.6g}  q3 {metric['q3']:.6g}  n={metric['n']}]"
        print(line)
    for layer, share in record.get("layers", {}).items():
        print(f"  layer {layer:22s} calls={share['calls']:<9d} "
              f"self={share['self_s']:.4f}s  {share['share_pct']:5.1f}% of traced rep")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in record["metrics"].items()
        },
    }), flush=True)


def run_one(args) -> int:
    _import_repro()
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT)
    # Anything that asks for a temporary file stays inside the checkout.
    os.environ["TMPDIR"] = work
    tempfile.tempdir = None
    try:
        record = measure(args, work)
    finally:
        _stop_processes()
        shutil.rmtree(work, ignore_errors=True)
    print_record(record)
    if args.record:
        with open(args.record, "w") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
    return 0 if record["correct"] else 1


def setup_probe(args) -> int:
    _import_repro()
    warm_up(args.workload, args.seed, args.store)
    _reap_children()
    print("ready", flush=True)
    _stop_processes()
    return 0


def full_pass(args) -> int:
    """Every workload untraced then traced, each in a fresh interpreter."""
    os.makedirs(OUT, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    result = {"seed": args.seed, "nproc": os.cpu_count(), "quick": args.quick,
              "python": sys.version.split()[0], "workloads": {}}
    failures = 0
    for workload in WORKLOADS:
        entry: dict = {}
        for trace in (0, 1):
            record_path = os.path.join(OUT, f"run-{stamp}-{workload}-{trace}.json")
            command = [
                sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--reps", str(args.reps),
                "--record", record_path,
            ] + (["--quick"] if args.quick else [])
            code = subprocess.run(command).returncode
            if code != 0 or not os.path.exists(record_path):
                failures += 1
                continue
            with open(record_path) as handle:
                record = json.load(handle)
            os.remove(record_path)
            section = "per_layer" if trace else "end_to_end"
            entry[section] = record["metrics"]
            entry.setdefault("digests", []).append(record["digest"])
            entry["attempted"] = entry.get("attempted", 0) + record["attempted"]
            entry["failed"] = entry.get("failed", 0) + record["failed"]
        if entry.get("attempted"):
            entry["failed_frac"] = entry["failed"] / entry["attempted"]
        result["workloads"][workload] = entry
    digests = {
        digest
        for entry in result["workloads"].values()
        for digest in entry.get("digests", [])
    }
    result["digest"] = digests.pop() if len(digests) == 1 else None
    path = os.path.join(OUT, f"pass-{stamp}.json")
    with open(path, "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    print(f"bench: wrote {path}")
    if result["digest"] is None:
        print("bench: FAIL — workloads disagree on the result digest", file=sys.stderr)
        failures += 1
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="keep running timed reps until this long has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced rep and print per-layer metrics")
    parser.add_argument("--reps", type=int, default=3,
                        help="least number of timed reps (default 3)")
    parser.add_argument("--quick", action="store_true",
                        help="1 rep of the 4-flow x 2 s warm-up batch, 2 setup interpreters")
    parser.add_argument("--record", help="also write the run's detail record here")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--store", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.quick:
        args.reps, args.seconds = 1, 0.0
    try:
        if args.setup_probe:
            return setup_probe(args)
        if args.workload == "all":
            return full_pass(args)
        return run_one(args)
    except BenchError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
