"""Deterministic chaos: fault plans that stress-test the simulator.

Wang et al.'s active/passive HSR measurements show that handoff storms,
multi-second deep fades and uplink blackouts are *expected* inputs on a
300 km/h link, not tail events.  A :class:`FaultPlan` injects exactly
those pathologies into an already-built scenario channel — extra outage
windows on both directions (handoff storm), long high-loss episodes on
the data direction (deep fade), total ACK-channel blackouts, and RTT
spikes via extra delay jitter — all drawn from a seed-derived RNG
stream, so a chaos run is as reproducible as a clean one.

Plans attach at three levels:

* :meth:`FaultPlan.apply` wraps one :class:`~repro.hsr.scenario.BuiltChannels`;
* :func:`with_faults` (or ``Scenario.with_channel_hook``) wraps a whole
  scenario, so every flow a campaign builds from it is faulted;
* the ``faults`` field of :func:`~repro.context.run_context` installs
  a plan ambiently for CLI runs
  (``python -m repro.experiments all --chaos 1.0``): campaign
  generators attach it to every scenario they build.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.simulator.channel import CompositeLoss, HandoffLoss, LossModel
from repro.util.errors import ConfigurationError
from repro.util.rng import RngStream

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hsr.scenario import BuiltChannels, Scenario

__all__ = [
    "FaultPlan",
    "with_faults",
]

Windows = Tuple[Tuple[float, float], ...]


def _poisson_windows(
    rng: RngStream, rate: float, mean_duration: float, duration: float
) -> Windows:
    """Disjoint, sorted (start, end) episodes from a Poisson arrival
    process with exponential lengths, clipped to ``[0, duration]``."""
    if rate <= 0.0:
        return ()
    windows: List[Tuple[float, float]] = []
    t = rng.expovariate(rate)
    while t < duration:
        length = min(rng.expovariate(1.0 / mean_duration), duration - t)
        windows.append((t, t + length))
        t = t + length + rng.expovariate(rate)
    return tuple(windows)


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible schedule of channel pathologies for one flow.

    Rates are events per second of flow time; all-zero rates (the
    default) make the plan a no-op.  Intensities are deliberately
    orthogonal so tests can enable one pathology at a time.
    """

    name: str = "chaos"
    #: extra handoff-like outages hitting both directions at once
    handoff_storm_rate: float = 0.0
    handoff_storm_mean_outage: float = 1.0
    #: long high-loss episodes on the data direction only
    deep_fade_rate: float = 0.0
    deep_fade_mean_duration: float = 1.5
    deep_fade_loss: float = 0.98
    #: total ACK-channel blackouts (the paper's spurious-timeout trigger)
    ack_blackout_rate: float = 0.0
    ack_blackout_mean_duration: float = 1.0
    #: extra log-normal delay jitter (seconds of sigma) — RTT spikes
    rtt_spike_sigma: float = 0.0

    def __post_init__(self) -> None:
        for attribute in (
            "handoff_storm_rate",
            "handoff_storm_mean_outage",
            "deep_fade_rate",
            "deep_fade_mean_duration",
            "ack_blackout_rate",
            "ack_blackout_mean_duration",
            "rtt_spike_sigma",
        ):
            if getattr(self, attribute) < 0.0:
                raise ConfigurationError(
                    f"{attribute} must be >= 0, got {getattr(self, attribute)}"
                )
        if not 0.0 <= self.deep_fade_loss <= 1.0:
            raise ConfigurationError(
                f"deep_fade_loss must be in [0, 1], got {self.deep_fade_loss}"
            )

    @classmethod
    def aggressive(cls, intensity: float = 1.0) -> "FaultPlan":
        """A plan that hits a 60 s flow with several episodes of every
        pathology; ``intensity`` scales the event rates and spike size."""
        if intensity <= 0.0:
            raise ConfigurationError(
                f"intensity must be positive, got {intensity}"
            )
        return cls(
            name=f"aggressive-{intensity:g}",
            handoff_storm_rate=0.05 * intensity,
            handoff_storm_mean_outage=1.0,
            deep_fade_rate=0.05 * intensity,
            deep_fade_mean_duration=1.5,
            deep_fade_loss=0.98,
            ack_blackout_rate=0.04 * intensity,
            ack_blackout_mean_duration=1.0,
            rtt_spike_sigma=0.5 * intensity,
        )

    def is_noop(self) -> bool:
        return (
            self.handoff_storm_rate == 0.0
            and self.deep_fade_rate == 0.0
            and self.ack_blackout_rate == 0.0
            and self.rtt_spike_sigma == 0.0
        )

    # -- application ---------------------------------------------------

    def apply(self, built: "BuiltChannels", seed: int) -> "BuiltChannels":
        """Wrap one flow's built channels with this plan's faults.

        The fault schedule is drawn from an RNG stream derived from
        ``seed`` and the plan name, independent of the scenario's own
        streams — adding faults never perturbs the base channel's
        random sequence.
        """
        if self.is_noop():
            return built
        rng = RngStream(seed, f"faults/{self.name}")
        duration = built.config.duration

        storms = _poisson_windows(
            rng.spawn("storm"),
            self.handoff_storm_rate,
            self.handoff_storm_mean_outage,
            duration,
        )
        fades = _poisson_windows(
            rng.spawn("deep-fade"),
            self.deep_fade_rate,
            self.deep_fade_mean_duration,
            duration,
        )
        blackouts = _poisson_windows(
            rng.spawn("ack-blackout"),
            self.ack_blackout_rate,
            self.ack_blackout_mean_duration,
            duration,
        )

        data_faults: List[LossModel] = []
        ack_faults: List[LossModel] = []
        if storms:
            data_faults.append(
                HandoffLoss(rng.spawn("storm-data"), storms, loss_during=0.95)
            )
            ack_faults.append(
                HandoffLoss(rng.spawn("storm-ack"), storms, loss_during=0.95)
            )
        if fades:
            data_faults.append(
                HandoffLoss(
                    rng.spawn("fade-data"), fades, loss_during=self.deep_fade_loss
                )
            )
        if blackouts:
            ack_faults.append(
                HandoffLoss(rng.spawn("blackout-ack"), blackouts, loss_during=1.0)
            )

        config = built.config
        if self.rtt_spike_sigma > 0.0:
            config = config.with_(
                jitter_sigma=config.jitter_sigma + self.rtt_spike_sigma
            )

        def _compose(base: LossModel, faults: List[LossModel]) -> LossModel:
            return CompositeLoss([base, *faults]) if faults else base

        return replace(
            built,
            data_loss=_compose(built.data_loss, data_faults),
            ack_loss=_compose(built.ack_loss, ack_faults),
            config=config,
            outages=tuple(sorted([*built.outages, *storms])),
        )

    def as_channel_hook(self) -> Callable[["BuiltChannels", int], "BuiltChannels"]:
        """The plan as a ``Scenario.channel_hook`` callable."""
        return self.apply

    def to_hook_spec(self):
        """The plan as a declarative ``"faults"``
        :class:`~repro.hsr.hooks.HookSpec` — pure data, so a scenario
        carrying it serializes to a document and content-hashes for the
        result store.  Round-trips exactly:
        ``FaultPlan(**spec.as_dict())`` rebuilds this plan.
        """
        # Lazy import: repro.hsr sits above repro.robustness in the
        # layering (hooks.py imports this module).
        from repro.hsr.hooks import HookSpec

        return HookSpec.make(
            "faults",
            name=self.name,
            handoff_storm_rate=self.handoff_storm_rate,
            handoff_storm_mean_outage=self.handoff_storm_mean_outage,
            deep_fade_rate=self.deep_fade_rate,
            deep_fade_mean_duration=self.deep_fade_mean_duration,
            deep_fade_loss=self.deep_fade_loss,
            ack_blackout_rate=self.ack_blackout_rate,
            ack_blackout_mean_duration=self.ack_blackout_mean_duration,
            rtt_spike_sigma=self.rtt_spike_sigma,
        )


def with_faults(scenario: "Scenario", plan: FaultPlan) -> "Scenario":
    """A copy of ``scenario`` whose every build is wrapped by ``plan``.

    The plan is attached declaratively (:meth:`FaultPlan.to_hook_spec`),
    so the faulted scenario remains serializable and content-hashable —
    a chaos campaign caches and resumes exactly like a clean one.
    """
    return scenario.with_channel_hook(plan.to_hook_spec())
