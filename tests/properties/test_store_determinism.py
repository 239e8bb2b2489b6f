"""Property: a store-backed campaign is byte-identical to an uncached one.

The store's whole contract is invisibility: whether flows come from the
simulator or from disk, and whichever backend runs the misses, every
trace pickle and the serialised report must match an uncached serial
run byte for byte.  A campaign killed midway (here: a run of only the
first k specs) must resume by executing exactly the flows still
missing — and nothing else.
"""

import os
import pickle
import subprocess
import sys

import repro.exec.executor as executor_module
from repro.exec import Executor, FlowSpec
from repro.hsr import CHINA_MOBILE, CHINA_TELECOM, hsr_scenario
from repro.context import run_context
from repro.store import ResultStore, flow_key
from repro.traces.events import FlowMetadata


def _specs(n=4, duration=4.0):
    specs = []
    for i in range(n):
        flow_id = f"prop-store/{i}"
        metadata = FlowMetadata(
            flow_id=flow_id, provider="CM", technology="LTE", scenario="hsr",
            capture_month="2015-01", phone_model="Note 3",
            duration=duration, seed=300 + i,
        )
        specs.append(
            FlowSpec(
                scenario=hsr_scenario(CHINA_MOBILE if i % 2 else CHINA_TELECOM),
                duration=duration,
                seed=300 + i,
                cc="newreno" if i % 2 else "reno",
                flow_id=flow_id,
                metadata=metadata,
            )
        )
    return specs


def _trace_pickles(execution):
    return [pickle.dumps(trace) for trace in execution.traces]


class TestCachedEqualsFresh:
    def test_warm_cache_identical_across_backends(self, tmp_path):
        specs = _specs()
        fresh = Executor.for_workers(1).run(specs)
        store = ResultStore(tmp_path / "store")
        with run_context(store=store):
            cold = Executor.for_workers(1).run(specs)
        assert cold.report.cache_misses == len(specs)
        assert _trace_pickles(cold) == _trace_pickles(fresh)
        assert cold.report.to_json() == fresh.report.to_json()
        for workers in (1, 2, "auto"):
            with run_context(store=store):
                warm = Executor.for_workers(workers).run(specs)
            assert warm.report.cache_hits == len(specs), workers
            assert _trace_pickles(warm) == _trace_pickles(fresh), workers
            assert warm.report.to_json() == fresh.report.to_json(), workers

    def test_kill_and_resume_runs_only_the_remainder(self, tmp_path, monkeypatch):
        specs = _specs()
        fresh = Executor.for_workers(1).run(specs)
        store = ResultStore(tmp_path / "store")
        # A campaign killed after k flows: only those entries exist.
        k = 2
        with run_context(store=store):
            Executor.for_workers(1).run(specs[:k])
        assert store.stats().entries == k
        # The rerun must simulate exactly the n-k missing flows.
        calls = []
        original = executor_module.simulate_spec
        monkeypatch.setattr(
            executor_module,
            "simulate_spec",
            lambda spec: calls.append(spec.flow_id) or original(spec),
        )
        with run_context(store=store):
            resumed = Executor.for_workers(1).run(specs)
        assert sorted(calls) == sorted(s.flow_id for s in specs[k:])
        assert resumed.report.cache_hits == k
        assert resumed.report.cache_misses == len(specs) - k
        assert _trace_pickles(resumed) == _trace_pickles(fresh)
        assert resumed.report.to_json() == fresh.report.to_json()
        # ...and a second full run touches the simulator not at all.
        calls.clear()
        with run_context(store=store):
            warm = Executor.for_workers(1).run(specs)
        assert calls == []
        assert warm.report.cache_hits == len(specs)
        assert _trace_pickles(warm) == _trace_pickles(fresh)

    def test_seeded_loop_over_roots(self, tmp_path):
        # Key stability under many seeds: same spec -> same key, and a
        # warm rerun serves every one of them.
        store = ResultStore(tmp_path / "store")
        specs = [
            FlowSpec(
                scenario=hsr_scenario(CHINA_MOBILE),
                duration=2.0,
                seed=seed,
                flow_id=f"loop/{seed}",
            )
            for seed in range(7000, 7006)
        ]
        keys = [flow_key(spec) for spec in specs]
        assert len(set(keys)) == len(keys)
        assert keys == [flow_key(spec) for spec in specs]
        with run_context(store=store):
            Executor.for_workers(1).run(specs)
            warm = Executor.for_workers(1).run(specs)
        assert warm.report.cache_hits == len(specs)


class TestKeyStability:
    def test_flow_key_stable_across_processes(self):
        """The content hash must not depend on interpreter hash state."""
        snippet = (
            "from repro.exec import FlowSpec\n"
            "from repro.hsr import CHINA_MOBILE, hsr_scenario\n"
            "from repro.store import flow_key\n"
            "print(flow_key(FlowSpec(scenario=hsr_scenario(CHINA_MOBILE),"
            " duration=10.0, seed=7)))\n"
        )
        keys = set()
        for hashseed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (os.path.join(os.getcwd(), "src"),
                            env.get("PYTHONPATH")) if p
            )
            completed = subprocess.run(
                [sys.executable, "-c", snippet],
                capture_output=True, text=True, env=env, check=True,
            )
            keys.add(completed.stdout.strip())
        assert len(keys) == 1
        assert len(keys.pop()) == 64
