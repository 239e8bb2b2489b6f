"""Executor.run as one pipeline: every store-backed batch is
supervised, and a warm rerun spawns nothing.

Pools are counted at the one name the supervisor builds them from,
``repro.exec.supervise.ProcessPoolExecutor``.  A deadline needs a
process boundary to kill across, so even the serial placement gets
exactly one pool on a cold run; a warm run is served by the store
partition in the parent and never reaches the supervisor.
"""

import pytest

import repro.exec.supervise as supervise
from repro.context import run_context
from repro.exec import Executor, FlowSpec, SupervisorPolicy
from repro.simulator.connection import ConnectionConfig


@pytest.fixture
def pools(monkeypatch):
    """How many process pools the supervisor built, as a one-item list."""
    built = [0]
    real = supervise.ProcessPoolExecutor

    def counting(*args, **kwargs):
        built[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(supervise, "ProcessPoolExecutor", counting)
    return built


def _specs():
    return [
        FlowSpec(
            config=ConnectionConfig(duration=2.0, wmax=16.0),
            seed=110 + i,
            flow_id=f"pipe/{i}",
        )
        for i in range(3)
    ]


@pytest.mark.parametrize("workers", [1, 2])
def test_store_backed_batch_is_supervised_and_warm_spawns_nothing(
    tmp_path, pools, workers
):
    with run_context(supervisor=SupervisorPolicy(deadline_s=30), store=tmp_path):
        cold = Executor.for_workers(workers).run(_specs())
        assert pools == [1]
        warm = Executor.for_workers(workers).run(_specs())
    assert pools == [1]  # the warm run built no pool
    assert (cold.report.cache_hits, cold.report.cache_misses) == (0, 3)
    assert (warm.report.cache_hits, warm.report.cache_misses) == (3, 0)
    # the cache counters are display-only: the report bytes match
    assert warm.report.to_json() == cold.report.to_json()
