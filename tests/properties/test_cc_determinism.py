"""Property: every registered CC is byte-identical across backends.

The executor's serial/pool/auto equivalence is proved for Reno in
test_executor_determinism; the zoo senders bring new scheduling
behaviour (BBR's pacing timers especially), so the contract is pinned
for every variant: same specs, serial or pool, same bytes.
"""

import pickle

from repro.cc import cc_names
from repro.exec import Executor, FlowSpec
from repro.hsr import hsr_scenario


def _specs(cc):
    scenario = hsr_scenario()
    return [
        FlowSpec(
            scenario=scenario,
            duration=6.0,
            seed=300 + 17 * index,
            cc=cc,
            flow_id=f"det/{cc}/{index}",
        )
        for index in range(2)
    ]


def _log_pickles(execution):
    return [pickle.dumps(o.result.log) for o in execution.outcomes]


class TestPoolEquivalenceWholeZoo:
    def test_serial_vs_pool_mixed_cc_batch(self):
        # One process-pool spin-up covers every variant: the batch mixes
        # all six CCs, so pickling specs (cc_params included) and
        # worker-side sender construction are both exercised.
        specs = [spec for cc in sorted(cc_names()) for spec in _specs(cc)]
        serial = Executor.for_workers(1).run(specs)
        pooled = Executor.for_workers(2).run(specs)
        assert _log_pickles(serial) == _log_pickles(pooled)
        assert serial.report.to_json() == pooled.report.to_json()
