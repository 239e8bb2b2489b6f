"""The campaign benchmark's warm-up batch reproduces its pinned digest.

``campaignbench/bench.py`` refuses a run whose results hash differently
from the digest pinned in ``campaignbench/digests.json``.  This test
runs the same check on the benchmark's 4-flow x 2 s warm-up batch, so a
hot-path change that moves a single float, draw or event fails here
and not only in the benchmark.  The script is loaded read-only,
straight from the file.
"""

import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[2] / "campaignbench" / "bench.py"
SEED = 2015


def _bench(monkeypatch):
    name = "campaignbench_bench"
    spec = importlib.util.spec_from_file_location(name, BENCH)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_warm_up_batch_reproduces_the_pinned_digest(monkeypatch):
    bench = _bench(monkeypatch)
    pinned = bench.pinned_digest(SEED, bench.WARMUP)
    assert pinned is not None
    execution = bench.run_campaign(1, bench._specs(SEED, bench.WARMUP))
    assert bench.result_digest(execution) == pinned
