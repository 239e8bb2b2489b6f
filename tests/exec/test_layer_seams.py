"""The benchmark tracer's seams stay on the path a campaign takes.

``campaignbench/layers.py`` times the campaign stack by patching names
where callers look them up: ``SupervisedBackend.map``, the store
codec's globals in ``repro.store.backend``, ``ResultStore.put`` and
others.  A stage that stops calling a patched name would quietly drop
out of the per-layer figures, and a name that disappears would make
``install_campaign_layers`` fail and take the benchmark down.  This
test installs the real catalogue (read-only, straight from the file)
around a cold and a warm store-backed run.
"""

import importlib.util
import sys
from pathlib import Path

from repro.exec import Executor, FlowSpec
from repro.simulator.connection import ConnectionConfig
from repro.store.scope import store_scope

LAYERS = Path(__file__).resolve().parents[2] / "campaignbench" / "layers.py"


def _layers(monkeypatch):
    name = "campaignbench_layers"
    spec = importlib.util.spec_from_file_location(name, LAYERS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while executing it
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def _specs():
    return [
        FlowSpec(
            config=ConnectionConfig(duration=2.0, wmax=16.0),
            seed=90 + i,
            flow_id=f"seam/{i}",
        )
        for i in range(3)
    ]


def _traced_run(layers, store):
    with layers.Tracer() as tracer:
        layers.install_campaign_layers(tracer)
        with store_scope(store):
            Executor.for_workers(1).run(_specs())
    return tracer


def test_cold_and_warm_runs_cross_the_patched_seams(tmp_path, monkeypatch):
    layers = _layers(monkeypatch)
    cold = _traced_run(layers, tmp_path)
    for layer in ("exec.supervise", "store.key", "store.encode", "store.put"):
        assert cold.calls(layer) >= 1, layer
    warm = _traced_run(layers, tmp_path)
    assert warm.calls("store.decode") >= 3
    assert warm.calls("exec.supervise") == 0  # all hits: nothing to supervise
