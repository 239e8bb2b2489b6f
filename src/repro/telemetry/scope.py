"""Ambient campaign-telemetry configuration (the ``--telemetry`` plumbing).

Mirrors :func:`repro.robustness.watchdog.watchdog_scope`: the
experiments CLI installs a :class:`TelemetryConfig` for a whole
invocation, and every :class:`~repro.exec.Executor` run inside the
scope picks it up without any experiment driver having to thread a
parameter.  The configuration never crosses a process boundary: the
executor summarises the outcomes workers return, in the parent.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Iterator, Optional, TextIO

from repro.telemetry.campaign import CampaignTelemetry

__all__ = ["TelemetryConfig", "current_telemetry_config", "telemetry_scope"]


@dataclass
class TelemetryConfig:
    """What ambient telemetry an executor run should produce.

    ``aggregate``, when given, accumulates every in-scope run's
    campaign telemetry (the CLI prints it once at the end).
    ``collect`` turns per-flow counter collection on; ``progress``
    turns wall-clock progress lines on (independent of collection —
    progress is presentation only and never changes result bytes).
    """

    collect: bool = True
    progress: bool = False
    aggregate: Optional[CampaignTelemetry] = field(default=None)
    progress_stream: Optional[TextIO] = None


_ambient_config: ContextVar[Optional[TelemetryConfig]] = ContextVar(
    "repro_ambient_telemetry", default=None
)


def current_telemetry_config() -> Optional[TelemetryConfig]:
    """The ambient config installed by :func:`telemetry_scope`, if any."""
    return _ambient_config.get()


@contextlib.contextmanager
def telemetry_scope(
    config: Optional[TelemetryConfig],
) -> Iterator[Optional[TelemetryConfig]]:
    """Install ``config`` as the ambient telemetry for the enclosed block.

    Passing ``None`` explicitly shadows (disables) any outer scope.
    """
    token = _ambient_config.set(config)
    try:
        yield config
    finally:
        _ambient_config.reset(token)
