"""Fixtures shared by the store suites."""

import pytest

import repro.exec.executor as executor_module


@pytest.fixture
def simulated(monkeypatch):
    """How many flows the simulator actually ran, as a one-item list.

    Wraps ``simulate_spec``, the attempt loop's primitive; serial runs
    execute in this process, so every simulation is counted.
    """
    calls = [0]
    real = executor_module.simulate_spec

    def counting(spec):
        calls[0] += 1
        return real(spec)

    monkeypatch.setattr(executor_module, "simulate_spec", counting)
    return calls
