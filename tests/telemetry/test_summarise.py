"""``summarise`` reproduces the pinned per-flow counters exactly.

``live_counters.json`` holds, per flow, the counters the hook-based
live sink recorded while the simulation ran, before telemetry became a
view over the finished flow.  It is the reference the derivation has
to keep matching: any divergence means a counter is read off the log
differently from what the simulation did.

The flows cover the 51-flow Table-I batch at benchmark size, one flow
per registered congestion control, an MPTCP backup flow, a bottleneck
flow and flows under an aggressive fault plan.  Regenerate the file
only when the simulation itself changes, and then from a run that is
checked against the golden trace.
"""

import json
import os

import pytest

from repro.cc import cc_names
from repro.exec import FlowSpec, simulate_spec
from repro.hsr import CHINA_MOBILE, CHINA_TELECOM, CHINA_UNICOM, hsr_scenario
from repro.robustness import FaultPlan
from repro.simulator.channel import BernoulliLoss, GilbertElliottLoss
from repro.simulator.connection import ConnectionConfig
from repro.telemetry import COUNTER_NAMES, summarise
from repro.traces.generator import campaign_specs
from repro.util.rng import RngStream

FIXTURE = os.path.join(os.path.dirname(__file__), "live_counters.json")


def fixture_specs():
    """Every flow the fixture pins, in fixture order (capture stripped:
    a trace changes no counter)."""
    specs = [
        spec.with_(metadata=None, validate=False)
        for spec in campaign_specs(seed=2015, duration=20.0, flow_scale=0.2)
    ]
    for index, name in enumerate(cc_names()):
        specs.append(FlowSpec(
            scenario=hsr_scenario(CHINA_MOBILE), duration=20.0,
            seed=300 + index, cc=name, flow_id=f"cc/{name}",
        ))
    specs.append(FlowSpec(
        config=ConnectionConfig(duration=20.0, jitter_sigma=0.1),
        data_loss=BernoulliLoss(0.04, RngStream(7, "data")),
        ack_loss=GilbertElliottLoss(
            RngStream(7, "ack"), mean_good_duration=5.0, mean_bad_duration=0.3
        ),
        redundant_data_loss=BernoulliLoss(0.3, RngStream(7, "backup")),
        seed=7, flow_id="mptcp/backup",
    ))
    specs.append(FlowSpec(
        config=ConnectionConfig(duration=20.0),
        data_loss=BernoulliLoss(0.01, RngStream(8, "data")),
        ack_loss=BernoulliLoss(0.01, RngStream(8, "ack")),
        bottleneck_rate=200.0, bottleneck_buffer=16,
        seed=8, flow_id="bottleneck",
    ))
    for index, provider in enumerate((CHINA_MOBILE, CHINA_TELECOM, CHINA_UNICOM)):
        specs.append(FlowSpec(
            scenario=hsr_scenario(provider), duration=20.0, seed=400 + index,
            fault_plan=FaultPlan.aggressive(1.0), flow_id=f"faults/{index}",
        ))
    return specs


@pytest.fixture(scope="module")
def pinned():
    with open(FIXTURE) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def derived():
    return {
        spec.flow_id: summarise(simulate_spec(spec)[0], spec.flow_id).counters
        for spec in fixture_specs()
    }


class TestPinnedLiveCounters:
    def test_fixture_covers_every_flow(self, pinned):
        assert [spec.flow_id for spec in fixture_specs()] == list(pinned)
        assert len(pinned) == 51 + len(cc_names()) + 5

    def test_summarise_reproduces_every_counter(self, pinned, derived):
        mismatched = {
            flow_id: {
                name: (derived[flow_id][name], counters[name])
                for name in COUNTER_NAMES
                if derived[flow_id][name] != counters[name]
            }
            for flow_id, counters in pinned.items()
        }
        assert {k: v for k, v in mismatched.items() if v} == {}

    def test_fixture_exercises_every_derivation(self, pinned):
        """Each derived counter is nonzero somewhere, so no derivation
        passes by comparing zeros."""
        derivable = COUNTER_NAMES[: COUNTER_NAMES.index("budget_trips")]
        for name in derivable:
            assert any(counters[name] for counters in pinned.values()), name
        spurious = sum(c["rto_spurious"] for c in pinned.values())
        assert 0 < spurious < sum(c["rto_fired"] for c in pinned.values())
