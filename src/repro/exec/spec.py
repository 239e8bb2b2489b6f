"""FlowSpec: a frozen, picklable description of one simulated flow.

Every flow the library runs — campaign flows, experiment micro-flows,
MPTCP subflows, sweep points — is described by one :class:`FlowSpec`
and executed by :mod:`repro.exec.executor`.  The spec replaces the
positional ``run_flow(config, data_loss, ack_loss, seed, ...)`` sprawl
with a single value that can be stored, hashed into a flow id,
shipped to a worker process, and re-run bit-identically.

A spec names its channels one of two ways:

* **scenario-based** — carry a :class:`~repro.hsr.scenario.Scenario`
  plus a duration; the executor materialises fresh loss models via
  ``scenario.build(duration, seed)`` in whichever process runs the
  flow.  This is the campaign/sweep path.
* **explicit** — carry a :class:`~repro.simulator.connection.ConnectionConfig`
  and concrete :class:`~repro.simulator.channel.LossModel` instances
  (the scripted micro-experiments of Figs. 5/7/9/11).  Loss models are
  stateful, so the executor deep-copies them per run — executing a spec
  never mutates it, and serial/parallel runs see identical channel
  state.

``seed`` seeds the connection (jitter streams); ``channel_seed``
optionally decouples the scenario build from it (some experiments
build channels and run the connection under different seeds).
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Optional

from repro.robustness.faults import FaultPlan
from repro.robustness.watchdog import Watchdog
from repro.simulator.channel import LossModel, NoLoss
from repro.simulator.connection import ConnectionConfig
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    # Both sit above repro.exec in the layering (their packages import
    # exec); a runtime import here would be circular.
    from repro.hsr.scenario import Scenario
    from repro.traces.events import FlowMetadata

__all__ = ["FlowSpec", "ResolvedFlow"]


@dataclass
class ResolvedFlow:
    """Simulator-ready artefacts materialised from one :class:`FlowSpec`.

    Fresh per execution: loss models here are never shared with the
    spec or with other runs.
    """

    config: ConnectionConfig
    data_loss: LossModel
    ack_loss: LossModel
    redundant_data_loss: Optional[LossModel] = None


@dataclass(frozen=True)
class FlowSpec:
    """Everything needed to (re)run one flow, as an immutable value."""

    #: scenario to build channels from (scenario-based specs)
    scenario: Optional["Scenario"] = None
    #: explicit connection config (required when ``scenario`` is None;
    #: optional override of the built config's duration otherwise)
    config: Optional[ConnectionConfig] = None
    #: explicit channels (ignored when ``scenario`` is given)
    data_loss: Optional[LossModel] = None
    ack_loss: Optional[LossModel] = None
    #: MPTCP backup-mode alternate subflow channel (Section V-B)
    redundant_data_loss: Optional[LossModel] = None
    #: congestion-control registry name (:mod:`repro.cc`)
    cc: str = "reno"
    #: optional per-variant tuning record — one of the frozen dataclasses
    #: in :mod:`repro.cc` (e.g. :class:`~repro.cc.CubicParams`); threaded
    #: to the sender factory and hashed into the flow's content key, so
    #: tuned and default runs never collide in the result store
    cc_params: Optional[object] = None
    #: seed of the connection's RNG streams (jitter etc.)
    seed: int = 0
    #: seed for ``scenario.build``; defaults to ``seed``
    channel_seed: Optional[int] = None
    #: flow duration (required for scenario-based specs; overrides
    #: ``config.duration`` when both are given)
    duration: Optional[float] = None
    #: delayed-ACK factor / window clamp forwarded to ``scenario.build``
    b: Optional[int] = None
    wmax: Optional[float] = None
    #: stable identifier used in campaign reports and quarantine records
    flow_id: str = "flow"
    #: optional bottleneck on the data direction
    bottleneck_rate: Optional[float] = None
    bottleneck_buffer: int = 64
    #: chaos injected into the built channels (applied after build,
    #: exactly where ``Scenario.channel_hook`` would run)
    fault_plan: Optional[FaultPlan] = None
    #: per-flow budgets; executors fill this from the run context's watchdog
    watchdog: Optional[Watchdog] = None
    #: when set, the executor captures a FlowTrace with this metadata
    metadata: Optional["FlowMetadata"] = None
    #: validate the captured trace (requires ``metadata``)
    validate: bool = False
    #: content key of the flow this spec is a retry attempt of; set by
    #: :meth:`for_attempt` so the result store resolves reseeded retry
    #: specs to the *original* flow's cache entry
    parent_key: Optional[str] = None
    #: scenario *reference* — a registered scenario name or a path to a
    #: scenario document (:mod:`repro.scenarios`); resolved into
    #: ``scenario`` at construction, so the rest of the pipeline never
    #: sees the indirection
    scenario_ref: Optional[str] = None

    #: fields the result store excludes from the content hash —
    #: ``parent_key`` is the back-pointer the hash itself resolves
    #: through, and ``scenario_ref`` is already captured by the resolved
    #: ``scenario`` (a by-name spec must hash identically to the same
    #: spec built from the compiled scenario directly)
    _CACHE_KEY_EXCLUDE = frozenset({"parent_key", "scenario_ref"})

    def __post_init__(self) -> None:
        if self.scenario_ref is not None:
            if self.scenario is not None:
                raise ConfigurationError(
                    "give scenario or scenario_ref, not both"
                )
            # Lazy import: repro.scenarios sits above repro.exec in the
            # layering (its compiler builds on repro.hsr).
            from repro.scenarios import compile_scenario

            object.__setattr__(
                self, "scenario", compile_scenario(self.scenario_ref)
            )
        if self.scenario is None and self.config is None:
            raise ConfigurationError(
                "FlowSpec needs a scenario or an explicit ConnectionConfig"
            )
        if self.scenario is not None and self.duration is None:
            raise ConfigurationError(
                "scenario-based FlowSpec needs an explicit duration"
            )
        if self.duration is not None and self.duration <= 0.0:
            raise ConfigurationError(
                f"duration must be positive, got {self.duration}"
            )
        if self.validate and self.metadata is None:
            raise ConfigurationError(
                "validate=True needs metadata (validation runs on the "
                "captured trace)"
            )
        if not self.cc:
            raise ConfigurationError("cc must name a registered variant")
        if self.cc_params is not None and not dataclasses.is_dataclass(
            self.cc_params
        ):
            raise ConfigurationError(
                "cc_params must be a repro.cc tuning dataclass "
                f"(CubicParams, BbrParams, ...), got {type(self.cc_params).__name__}"
            )

    # -- derived values ------------------------------------------------

    @property
    def effective_duration(self) -> float:
        """The duration this spec will actually simulate."""
        if self.duration is not None:
            return self.duration
        assert self.config is not None  # enforced by __post_init__
        return self.config.duration

    @property
    def effective_channel_seed(self) -> int:
        return self.channel_seed if self.channel_seed is not None else self.seed

    def with_(self, **changes) -> "FlowSpec":
        """A copy with the given fields replaced; unknown names raise."""
        known = {field.name for field in fields(self)}
        unknown = sorted(set(changes) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown FlowSpec field(s) {unknown}; known fields: {sorted(known)}"
            )
        return replace(self, **changes)

    def for_attempt(self, attempt_seed: int) -> "FlowSpec":
        """The spec re-seeded for a retry attempt.

        The metadata seed follows so a retried flow's trace records the
        seed that actually produced it (the report's reproducibility
        contract).  The attempt also records its parent's content key:
        a retry is a different *spec* (different seed) but the same
        *flow*, so the result store must file whatever the retry
        produces under the identity the campaign asked for.
        """
        changes: dict = {"seed": attempt_seed}
        if self.channel_seed is not None:
            changes["channel_seed"] = attempt_seed
        if self.metadata is not None:
            changes["metadata"] = replace(self.metadata, seed=attempt_seed)
        if self.parent_key is None:
            # Lazy import: repro.store sits above repro.exec in the
            # layering (its backend imports the executor).
            from repro.store.keys import UnhashableSpecError, flow_key

            try:
                changes["parent_key"] = flow_key(self)
            except UnhashableSpecError:
                pass  # uncacheable specs stay uncacheable on retry
        return self.with_(**changes)

    # -- materialisation ----------------------------------------------

    def resolve(self) -> ResolvedFlow:
        """Materialise simulator-ready channels for one execution.

        Scenario-based specs build fresh loss models; explicit specs
        deep-copy theirs (loss models are stateful).  The fault plan is
        applied last, exactly where a ``Scenario.channel_hook`` runs.
        """
        if self.scenario is not None:
            build_kwargs: dict = {}
            if self.b is not None:
                build_kwargs["b"] = self.b
            if self.wmax is not None:
                build_kwargs["wmax"] = self.wmax
            built = self.scenario.build(
                duration=self.effective_duration,
                seed=self.effective_channel_seed,
                **build_kwargs,
            )
            config = built.config
            data_loss: LossModel = built.data_loss
            ack_loss: LossModel = built.ack_loss
            redundant = copy.deepcopy(self.redundant_data_loss)
            if self.config is not None:
                config = self.config
            if self.fault_plan is not None and not self.fault_plan.is_noop():
                built = replace(built, config=config)
                built = self.fault_plan.apply(built, self.effective_channel_seed)
                config, data_loss, ack_loss = (
                    built.config,
                    built.data_loss,
                    built.ack_loss,
                )
        else:
            assert self.config is not None
            config = self.config
            data_loss = copy.deepcopy(self.data_loss) or NoLoss()
            ack_loss = copy.deepcopy(self.ack_loss) or NoLoss()
            redundant = copy.deepcopy(self.redundant_data_loss)
            if self.fault_plan is not None and not self.fault_plan.is_noop():
                # Wrap explicit channels the same way a scenario build
                # would be wrapped; imported here because repro.hsr sits
                # above repro.exec in the layering.
                from repro.hsr.scenario import BuiltChannels

                built = self.fault_plan.apply(
                    BuiltChannels(
                        data_loss=data_loss,
                        ack_loss=ack_loss,
                        config=config,
                        outages=(),
                    ),
                    self.effective_channel_seed,
                )
                config, data_loss, ack_loss = (
                    built.config,
                    built.data_loss,
                    built.ack_loss,
                )
        if self.duration is not None and config.duration != self.duration:
            config = config.with_(duration=self.duration)
        return ResolvedFlow(
            config=config,
            data_loss=data_loss,
            ack_loss=ack_loss,
            redundant_data_loss=redundant,
        )
