"""The ambient run context: one value for every campaign-wide setting.

The experiments CLI turns its flags into one :class:`RunContext` and
installs it with :func:`run_context` around a whole invocation; every
:class:`~repro.exec.Executor` run, campaign generator and
:func:`~repro.simulator.connection.run_flow` inside the block reads the
fields it needs through :func:`current_run_context`, so no experiment
driver threads a parameter.  With nothing installed the default
``RunContext()`` applies: no store, the default supervisor policy, no
watchdog, no faults, no telemetry, no progress.

A ContextVar does **not** cross a spawn boundary.  The store, the
supervisor policy, telemetry and progress are all used in the parent;
the two fields a worker needs travel inside the spec: the executor
bakes the watchdog into each spec (``Executor._finalise``) and the
campaign generators attach the fault plan to the scenario as a
declarative hook.

The field types are imported for type checking only: this module sits
below every layer that reads it.
"""

from __future__ import annotations

import contextlib
import os
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterator, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.supervise import SupervisorPolicy
    from repro.robustness.faults import FaultPlan
    from repro.robustness.watchdog import Watchdog
    from repro.store.disk import ResultStore
    from repro.store.remote import RemoteStore
    from repro.telemetry.campaign import CampaignTelemetry

__all__ = ["RunContext", "current_run_context", "run_context"]


@dataclass(frozen=True)
class RunContext:
    """Campaign-wide settings (the experiments CLI's flags).

    * ``store`` — serve hits from and persist fresh results to this
      result store (``--store``); ``refresh`` ignores existing entries
      but still writes fresh ones (``--no-cache``).
    * ``supervisor`` — the policy every executor without its own
      :class:`~repro.exec.supervise.SupervisedBackend` runs under
      (``--deadline-s`` / ``--max-worker-restarts``); ``None`` means
      the default policy.
    * ``watchdog`` — bounds every flow not given its own
      (``--timeout-s`` / ``--max-events``).
    * ``faults`` — chaos injected into every campaign whose generator
      is not given its own plan (``--chaos``).
    * ``telemetry`` — when set, every executor run collects campaign
      counters and merges them into this aggregate (``--telemetry``).
    * ``progress`` — print flows done/total, rate and ETA to stderr
      (``--progress``); presentation only, never changes result bytes.
    """

    store: Optional[Union[ResultStore, RemoteStore]] = None
    refresh: bool = False
    supervisor: Optional[SupervisorPolicy] = None
    watchdog: Optional[Watchdog] = None
    faults: Optional[FaultPlan] = None
    telemetry: Optional[CampaignTelemetry] = None
    progress: bool = False


_current: ContextVar[RunContext] = ContextVar(
    "repro_run_context", default=RunContext()
)


def current_run_context() -> RunContext:
    """The installed context, or the default ``RunContext()``."""
    return _current.get()


@contextlib.contextmanager
def run_context(**changes) -> Iterator[RunContext]:
    """Install the current context with ``changes`` for the block.

    A field not named inherits from the enclosing context; a field
    named as ``None`` clears it.  A ``store`` given as a directory path
    or an ``http://`` URL is opened (:func:`~repro.store.open_store`).
    """
    store = changes.get("store")
    if isinstance(store, (str, os.PathLike)):
        from repro.store.remote import open_store

        changes["store"] = open_store(store)
    context = replace(_current.get(), **changes)
    token = _current.set(context)
    try:
        yield context
    finally:
        _current.reset(token)
