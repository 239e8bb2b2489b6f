"""Tests of the campaign benchmark's own machinery.

Run from the repository root::

    python -m pytest campaignbench/test_bench_harness.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bench  # noqa: E402
from layers import (  # noqa: E402
    SpanCosts,
    Tracer,
    install_campaign_layers,
    traced_pool_workers,
)

bench._import_repro()


def _call_tree(tracer: Tracer, now: list):
    """a -> b -> c twice; c recurses once into itself.

    Work between spans advances the injected clock: a does 1.0 + 0.5,
    each b 2.0, each outer c 3.0 and its nested call 0.25.
    """

    def c(depth: int) -> None:
        now[0] += 3.0 if depth else 0.25
        if depth:
            traced_c(depth - 1)

    def b() -> None:
        now[0] += 2.0
        traced_c(1)

    def a() -> None:
        now[0] += 1.0
        traced_b()
        now[0] += 0.5
        traced_b()

    traced_c = tracer.wrap("c", c)
    traced_b = tracer.wrap("b", b)
    return tracer.wrap("a", a)


def test_self_time_is_span_minus_children_under_injected_clock():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])
    _call_tree(tracer, now)()
    assert now[0] == pytest.approx(1.5 + 2 * (2.0 + 3.25))
    assert tracer.self_seconds("a") == pytest.approx(1.5)
    assert tracer.self_seconds("b") == pytest.approx(4.0)
    # The nested c call is not a span of its own: its time is c's.
    assert tracer.self_seconds("c") == pytest.approx(6.5)
    assert [tracer.calls(layer) for layer in "abc"] == [1, 2, 2]
    assert tracer.totals["c"][5] == 2  # pass-through calls


def test_span_costs_are_subtracted_per_span_child_and_passthrough():
    now = [0.0]
    costs = SpanCosts(inner=0.1, outer=0.01, passthrough=0.001)
    tracer = Tracer(clock=lambda: now[0], costs=costs)
    _call_tree(tracer, now)()
    assert tracer.self_seconds("a") == pytest.approx(1.5 - 0.1 - 2 * 0.01)
    assert tracer.self_seconds("b") == pytest.approx(4.0 - 2 * 0.1 - 2 * 0.01)
    assert tracer.self_seconds("c") == pytest.approx(6.5 - 2 * 0.1 - 2 * 0.001)


def test_digest_is_equal_for_serial_and_warm_store_and_sees_one_field(tmp_path):
    specs = bench._specs(bench.DEFAULT_SEED, bench.WARMUP)
    serial = bench.run_campaign(1, specs)
    store = str(tmp_path / "store")
    bench.run_campaign(1, specs, store)
    warm = bench.run_campaign(1, specs, store)
    assert warm.report.cache_hits == len(specs)
    digest = bench.result_digest(serial)
    assert bench.result_digest(warm) == digest
    assert digest == bench.pinned_digest(bench.DEFAULT_SEED, bench.WARMUP)
    serial.traces[0].data_packets[0].send_time += 1e-9
    assert bench.result_digest(serial) != digest


def test_every_patch_is_undone_after_a_traced_pool_run(tmp_path):
    tracer = Tracer()
    with tracer:
        install_campaign_layers(tracer)
        traced_pool_workers(tracer, str(tmp_path))
        patched = list(tracer.patches)
        specs = bench._specs(bench.DEFAULT_SEED, bench.WARMUP)
        bench.run_campaign(2, specs)
        bench._reap_children()
    assert len(patched) > 20
    for owner, name, original in patched:
        current = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        assert current is original, f"{owner}.{name} still patched"
    assert tracer.merge_spool(str(tmp_path)) == 2
    assert tracer.calls("simulator.engine") == len(specs)
    assert tracer.units("simulator.loss") >= tracer.calls("simulator.loss") > 0


def test_quick_pass_emits_every_metric_of_the_benchmark():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "bench.py"), "--quick"],
        cwd=bench.ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-4000:]
    wrote = [line for line in done.stdout.splitlines() if line.startswith("bench: wrote ")]
    os.remove(wrote[-1][len("bench: wrote "):])
    results = [
        json.loads(line)
        for line in done.stdout.splitlines()
        if line.startswith('{"correct"')
    ]
    assert len(results) == 2 * len(spec["workloads"])
    assert all(result["correct"] for result in results)
    emitted = {name for result in results for name in result["metrics"]}
    expected = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert expected <= emitted
