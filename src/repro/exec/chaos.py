"""Chaos testing for the execution machinery itself.

:mod:`repro.robustness.faults` injects faults into the *simulated
network* — extra loss, handoff storms — and the campaign layer survives
flows that fail.  This module is the same philosophy one layer up: it
schedules faults in the *machinery that runs the flows* — workers that
die mid-spec, flows that hang past their deadline, flows whose worker
raises — so the supervision layer (:mod:`repro.exec.supervise`) can be
tested against the exact failure modes it exists to absorb.  A plan
only says which execution misbehaves and how; the supervisor's pool
loop carries the action out.

Everything is seeded and wall-clock-free: a :class:`ChaosPlan` is a
pure function of ``(seed, flow_ids)``, actions key on the *execution
index* of a flow (its first run, its first retry, …) rather than on
time, and the supervisor's roll-back rule for aborted executions means
every scheduled action fires exactly once no matter how the worker
pool's timing lands.  That is what makes the chaos determinism gate
possible: two runs of the same chaotic campaign produce byte-identical
:class:`~repro.robustness.campaign.CampaignReport` JSON.

A plan rides on the supervisor's policy
(``SupervisorPolicy(chaos=plan)``): the parent tracks per-flow
execution counts and hands the scheduled action to the worker-side
trampoline, so a "crash on execution 0" flow dies exactly once and then
completes — the recovery path is exercised, not just the failure.

Only for tests.  A chaos plan in a real campaign kills real workers;
the injected :class:`~repro.util.errors.ChaosError` is loud on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Tuple

from repro.util.errors import ConfigurationError
from repro.util.rng import derive_seed

__all__ = ["ChaosPlan"]

#: action kinds a plan may schedule, in severity order
_ACTION_KINDS = ("crash", "hang", "raise")


@dataclass(frozen=True)
class ChaosPlan:
    """A seeded schedule of execution faults, keyed by (flow_id, execution).

    ``crash``/``hang``/``raise`` map a flow id to the tuple of
    execution indices that misbehave: ``{"flow-3": (0,)}`` under
    ``crash`` means flow-3's *first* execution kills its worker and
    every later one runs clean — which is how a plan expresses "crash
    once, then recover".  ``hang_s`` is how long a hung flow sleeps
    (pick it comfortably past the supervisor's deadline).

    Plans are frozen values: build one explicitly for surgical tests,
    or :meth:`sample` one from a seed for breadth.
    """

    crash: Mapping[str, Tuple[int, ...]] = field(default_factory=dict)
    hang: Mapping[str, Tuple[int, ...]] = field(default_factory=dict)
    raise_: Mapping[str, Tuple[int, ...]] = field(default_factory=dict)
    hang_s: float = 30.0

    def __post_init__(self) -> None:
        if self.hang_s <= 0.0:
            raise ConfigurationError(f"hang_s must be positive, got {self.hang_s}")
        overlaps = set()
        for kind_a, kind_b in (("crash", "hang"), ("crash", "raise_"),
                               ("hang", "raise_")):
            a, b = getattr(self, kind_a), getattr(self, kind_b)
            for flow_id in set(a) & set(b):
                if set(a[flow_id]) & set(b[flow_id]):
                    overlaps.add(flow_id)
        if overlaps:
            raise ConfigurationError(
                "a (flow, execution) pair can schedule at most one action; "
                f"conflicting flows: {sorted(overlaps)}"
            )

    @classmethod
    def sample(
        cls,
        seed: int,
        flow_ids: Sequence[str],
        *,
        crashes: int = 1,
        hangs: int = 1,
        raises: int = 0,
        hang_s: float = 30.0,
    ) -> "ChaosPlan":
        """Draw a plan over ``flow_ids`` deterministically from ``seed``.

        Victims are chosen by ranking flows under a seeded hash —
        independent of list order duplicates aside — and each victim
        misbehaves on execution 0 (so one retry recovers it).  The
        pools are disjoint: a flow gets at most one scheduled action.
        """
        total = crashes + hangs + raises
        if total > len(flow_ids):
            raise ConfigurationError(
                f"plan wants {total} victims from {len(flow_ids)} flows"
            )
        ranked = sorted(
            dict.fromkeys(flow_ids),
            key=lambda flow_id: (derive_seed(seed, "chaos", flow_id), flow_id),
        )
        crash_ids = ranked[:crashes]
        hang_ids = ranked[crashes : crashes + hangs]
        raise_ids = ranked[crashes + hangs : total]
        return cls(
            crash={flow_id: (0,) for flow_id in crash_ids},
            hang={flow_id: (0,) for flow_id in hang_ids},
            raise_={flow_id: (0,) for flow_id in raise_ids},
            hang_s=hang_s,
        )

    def action_for(
        self, flow_id: str, execution: int
    ) -> Optional[Tuple]:
        """The supervisor-protocol action tuple for one execution."""
        if execution in self.crash.get(flow_id, ()):
            return ("crash",)
        if execution in self.hang.get(flow_id, ()):
            return ("hang", self.hang_s)
        if execution in self.raise_.get(flow_id, ()):
            return ("raise", f"chaos-injected failure for {flow_id}")
        return None

    @property
    def needs_pool(self) -> bool:
        """Whether any action must run behind a process boundary.

        ``crash`` would kill the parent inline, ``hang`` needs a worker
        the deadline can kill, and ``raise`` relies on the worker-side
        trampoline (inline execution never applies actions), so any
        scheduled action forces the pool.
        """
        return bool(self.crash or self.hang or self.raise_)

    def summary(self) -> str:
        return (
            f"chaos plan: {sum(map(len, self.crash.values()))} crashes, "
            f"{sum(map(len, self.hang.values()))} hangs "
            f"({self.hang_s:g}s), "
            f"{sum(map(len, self.raise_.values()))} raises"
        )

