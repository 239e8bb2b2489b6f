"""Chaos testing for the execution fabric itself.

:mod:`repro.robustness.faults` injects faults into the *simulated
network* — extra loss, handoff storms — and PR 1 proved the campaign
layer survives flows that fail.  This module is the same philosophy one
layer up: it injects faults into the *machinery that runs the flows* —
workers that die mid-spec, flows that hang past their deadline, store
shards that rot on disk — so the supervision layer
(:mod:`repro.exec.supervise`) can be tested against the exact failure
modes it exists to absorb.

Everything is seeded and wall-clock-free: a :class:`ChaosPlan` is a
pure function of ``(seed, flow_ids)``, actions key on the *execution
index* of a flow (its first run, its first retry, …) rather than on
time, and the supervisor's roll-back rule for aborted executions means
every scheduled action fires exactly once no matter how the worker
pool's timing lands.  That is what makes the chaos determinism gate
possible: two runs of the same chaotic campaign produce byte-identical
:class:`~repro.robustness.campaign.CampaignReport` JSON.

Only for tests.  A :class:`ChaosBackend` in a real campaign kills real
workers; the injected :class:`~repro.util.errors.ChaosError` is loud on
purpose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.exec.supervise import SupervisedBackend, SupervisorPolicy
from repro.util.errors import ConfigurationError
from repro.util.rng import derive_seed

__all__ = ["ChaosBackend", "ChaosPlan"]

#: action kinds a plan may schedule, in severity order
_ACTION_KINDS = ("crash", "hang", "raise")


@dataclass(frozen=True)
class ChaosPlan:
    """A seeded schedule of fabric faults, keyed by (flow_id, execution).

    ``crash``/``hang``/``raise`` map a flow id to the tuple of
    execution indices that misbehave: ``{"flow-3": (0,)}`` under
    ``crash`` means flow-3's *first* execution kills its worker and
    every later one runs clean — which is how a plan expresses "crash
    once, then recover".  ``corrupt_store`` names flows whose store
    entries are truncated on disk before the batch's store reads, and
    ``hang_s`` is how long a hung flow sleeps (pick it comfortably past
    the supervisor's deadline).

    Plans are frozen values: build one explicitly for surgical tests,
    or :meth:`sample` one from a seed for breadth.
    """

    crash: Mapping[str, Tuple[int, ...]] = field(default_factory=dict)
    hang: Mapping[str, Tuple[int, ...]] = field(default_factory=dict)
    raise_: Mapping[str, Tuple[int, ...]] = field(default_factory=dict)
    corrupt_store: Tuple[str, ...] = ()
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
        corruptions: int = 0,
        hang_s: float = 30.0,
    ) -> "ChaosPlan":
        """Draw a plan over ``flow_ids`` deterministically from ``seed``.

        Victims are chosen by ranking flows under a seeded hash —
        independent of list order duplicates aside — and each victim
        misbehaves on execution 0 (so one retry recovers it).  The
        pools are disjoint: a flow gets at most one scheduled action,
        and corruption victims are drawn after the action victims so a
        corrupted entry belongs to an otherwise healthy flow.
        """
        total = crashes + hangs + raises + corruptions
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
        raise_ids = ranked[crashes + hangs : crashes + hangs + raises]
        corrupt_ids = ranked[crashes + hangs + raises : total]
        return cls(
            crash={flow_id: (0,) for flow_id in crash_ids},
            hang={flow_id: (0,) for flow_id in hang_ids},
            raise_={flow_id: (0,) for flow_id in raise_ids},
            corrupt_store=tuple(corrupt_ids),
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
            f"{sum(map(len, self.raise_.values()))} raises, "
            f"{len(self.corrupt_store)} corrupted entries"
        )


class ChaosBackend(SupervisedBackend):
    """A :class:`SupervisedBackend` that executes a :class:`ChaosPlan`.

    The parent tracks per-flow execution counts and hands the scheduled
    action to the worker-side trampoline, so a "crash on execution 0"
    flow dies exactly once and then completes — the recovery path is
    exercised, not just the failure.  Over the fabric the execution
    index is the shard lease's ``epoch - 1``, and the action rides
    inside the lease to whichever worker draws it.  Store corruption
    happens in :meth:`prepare_batch`, which a wrapping
    :class:`~repro.store.backend.CachedBackend` invokes *before* its
    store reads: the campaign genuinely reads the rotten bytes.
    """

    def __init__(
        self,
        plan: ChaosPlan,
        inner: Optional[object] = None,
        *,
        policy: Optional[SupervisorPolicy] = None,
        store: Optional[object] = None,
    ) -> None:
        super().__init__(inner, policy=policy)
        self.plan = plan
        self._store = store
        self.corrupted: Dict[str, str] = {}  # flow_id -> corrupted key

    @property
    def name(self) -> str:
        return f"chaos[{getattr(self.inner, 'name', 'backend')}]"

    def _action_for(self, payload: Tuple, execution: int) -> Optional[Tuple]:
        return self.plan.action_for(payload[1].flow_id, execution)

    def _requires_pool(self, items: Sequence) -> bool:
        return self.plan.needs_pool

    def prepare_batch(self, items: Sequence) -> None:
        """Truncate the store entries the plan marks for corruption.

        Idempotent (truncating twice is truncating); a miss — no store
        in play, or no entry yet for that flow — is silently fine, so
        cold runs of a corrupting plan still complete.
        """
        if not self.plan.corrupt_store:
            return
        store = self._store
        if store is None:
            from repro.store.scope import current_store_config

            config = current_store_config()
            store = config.store if config is not None else None
        if store is None:
            return
        from repro.store.keys import UnhashableSpecError, flow_key

        targets = set(self.plan.corrupt_store)
        for payload in items:
            spec = payload[1]
            if spec.flow_id not in targets:
                continue
            try:
                key = flow_key(spec)
            except UnhashableSpecError:
                continue
            path = store.path_for(key)
            if not path.exists():
                continue
            raw = path.read_bytes()
            # Half a gzip frame: unreadable, hence CorruptEntryError →
            # quarantine → recompute on the very next read.
            path.write_bytes(raw[: max(len(raw) // 2, 1)])
            self.corrupted[spec.flow_id] = key
