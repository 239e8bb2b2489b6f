"""Flows that fail in only one way keep their exact bytes.

Two campaigns pin the sha256 of ``CampaignReport.to_json()`` and every
successful flow's ``(flow_id, trace seed)``:

* a serial campaign whose ``simulate_spec`` raises for chosen seeds:
  one flow fails its first attempt and succeeds on a reseeded retry,
  another fails every attempt and is quarantined;
* a two-worker campaign whose chaos plan crashes one worker once.

Each pins one failure mode on its own, so the numbers do not depend on
how mixed failures share a budget.
"""

import hashlib

from repro.context import run_context
from repro.exec.chaos import ChaosPlan
from repro.exec.supervise import SupervisorPolicy
from repro.robustness.campaign import RetryPolicy
from repro.traces.generator import generate_dataset
from tests.robustness.test_campaign import (  # noqa: F401 (fixture)
    DURATION,
    FLOW_SCALE,
    SEED,
    fail_flow,
    flow_seeds,
)


def _pins(dataset):
    report = hashlib.sha256(dataset.report.to_json().encode()).hexdigest()
    seeds = [(t.metadata.flow_id, t.metadata.seed) for t in dataset.traces]
    return report, seeds


SERIAL_REPORT_SHA256 = (
    "192e9c674e839bc23fab7dbd9fedd88c496a03de27186670c7cb7d7b330e5cba"
)
#: the seed of the retried flow's successful second attempt
RETRIED_SEED = 1373196208


def test_serial_raises_reseed_then_quarantine(fail_flow):  # noqa: F811
    seeds = flow_seeds()
    retried_id, retried_base = seeds[3]
    broken_id, broken_base = seeds[7]
    policy = RetryPolicy()
    fail_flow.add(retried_base)
    fail_flow.update(
        policy.seed_for_attempt(broken_base, a) for a in range(policy.max_attempts)
    )
    dataset = generate_dataset(seed=SEED, duration=DURATION, flow_scale=FLOW_SCALE)
    report, traced = _pins(dataset)
    expected = [
        (flow_id, RETRIED_SEED if flow_id == retried_id else base)
        for flow_id, base in seeds
        if flow_id != broken_id
    ]
    assert traced == expected
    assert report == SERIAL_REPORT_SHA256


CRASH_REPORT_SHA256 = (
    "ac670a91494215dc553f6ce7285824138b837e52a720ffdcf5f4a70a4368f56d"
)


def test_two_workers_crash_once():
    seeds = flow_seeds()
    victim_id, _ = seeds[5]
    policy = SupervisorPolicy(chaos=ChaosPlan(crash={victim_id: (0,)}))
    with run_context(supervisor=policy):
        dataset = generate_dataset(
            seed=SEED, duration=DURATION, flow_scale=FLOW_SCALE, workers=2
        )
    report, traced = _pins(dataset)
    assert traced == seeds
    assert report == CRASH_REPORT_SHA256
