"""FabricBackend: the executor placement that runs batches on the fabric.

``Executor.for_workers("fabric")`` (the CLI's ``--workers fabric``)
plugs the distributed fabric into the same pipeline every other
placement uses: ``map(fn, payloads)`` stands up a
:class:`~repro.fabric.coordinator.CampaignCoordinator` on an ephemeral
localhost port, spawns ``workers`` local worker processes
(``python -m repro.fabric work``), keeps them alive for the duration
(dead workers are respawned up to ``max_worker_restarts``), and blocks
until every shard completes — returning outcomes in batch order, so
reports and telemetry stay byte-identical to serial runs.

The backend advertises ``self_supervising = True``: it is the one
placement with its own ``map``, and
:class:`~repro.exec.supervise.SupervisedBackend` delegates the batch to
it, because the fabric's fault story (lease expiry, epoch arbitration,
worker respawn) already covers everything the in-process supervisor
would add, across a boundary the supervisor cannot see.  The one thing
the supervisor still owns is the chaos schedule of its policy: it hands
``map`` its ``action_for`` hook, and the coordinator ships each
payload's action inside its lease.

The backend never touches a result store.  Under
:func:`~repro.store.scope.store_scope` the executor's store stages
partition hits from misses before the batch reaches the fabric and
write every returned outcome back, so workers need nothing but the
coordinator URL.

Configuration is ambient, like every other campaign knob:
:func:`fabric_scope` installs a :class:`FabricConfig` (the CLI's
``--fabric-workers`` / ``--lease-timeout-s`` plumbing), and external
workers on other hosts can join the same campaign mid-run by pointing
``python -m repro.fabric work --coordinator URL`` at the printed
endpoint — ``workers=0`` runs a coordinator that *only* waits for such
external workers.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
import time
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.fabric.coordinator import ActionFor, CampaignCoordinator
from repro.fabric.shard import DEFAULT_SHARD_SIZE
from repro.util.errors import ConfigurationError

__all__ = [
    "FabricBackend",
    "FabricConfig",
    "current_fabric_config",
    "fabric_scope",
]


@dataclass(frozen=True)
class FabricConfig:
    """How a :class:`FabricBackend` stands up its campaign.

    ``workers`` local worker processes are spawned per map call
    (0 = none: external workers must attach to the printed coordinator
    URL).
    """

    workers: int = 2
    host: str = "127.0.0.1"
    port: int = 0
    shard_size: int = DEFAULT_SHARD_SIZE
    lease_timeout_s: float = 30.0
    steal_age_s: Optional[float] = None
    max_worker_restarts: int = 8
    poll_s: float = 0.05
    announce: bool = False

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ConfigurationError(
                f"workers must be >= 0, got {self.workers}"
            )
        if self.max_worker_restarts < 0:
            raise ConfigurationError(
                f"max_worker_restarts must be >= 0, got {self.max_worker_restarts}"
            )
        if self.poll_s <= 0.0:
            raise ConfigurationError(
                f"poll_s must be positive, got {self.poll_s}"
            )


_ambient_fabric: ContextVar[Optional[FabricConfig]] = ContextVar(
    "repro_ambient_fabric", default=None
)


def current_fabric_config() -> Optional[FabricConfig]:
    """The ambient config installed by :func:`fabric_scope`, if any."""
    return _ambient_fabric.get()


@contextlib.contextmanager
def fabric_scope(config: Optional[FabricConfig]) -> Iterator[Optional[FabricConfig]]:
    """Install ``config`` ambiently (the CLI's fabric-flag plumbing).

    ``None`` is a no-op scope, so callers can thread an optional
    configuration straight through.
    """
    if config is None:
        yield None
        return
    token = _ambient_fabric.set(config)
    try:
        yield config
    finally:
        _ambient_fabric.reset(token)


class _WorkerFleet:
    """Spawn, watch, and respawn the local worker processes."""

    def __init__(self, coordinator_url: str, config: FabricConfig) -> None:
        self.url = coordinator_url
        self.config = config
        self.procs: List[subprocess.Popen] = []
        self.spawned = 0
        self.restarts = 0

    def _environment(self) -> Dict[str, str]:
        # The spawned interpreter must resolve the same repro package
        # as this process regardless of the caller's cwd.
        env = dict(os.environ)
        src_dir = str(Path(__file__).resolve().parents[2])
        path = env.get("PYTHONPATH", "")
        if src_dir not in path.split(os.pathsep):
            env["PYTHONPATH"] = (
                f"{src_dir}{os.pathsep}{path}" if path else src_dir
            )
        return env

    def spawn(self) -> None:
        """Launch the configured workers."""
        for _ in range(self.config.workers):
            self._launch()

    def _launch(self) -> None:
        # stdout is silenced: campaign drivers print byte-compared
        # report JSON on *their* stdout, and worker chatter belongs to
        # stderr anyway.
        self.procs.append(
            subprocess.Popen(
                [sys.executable, "-m", "repro.fabric", "work",
                 "--coordinator", self.url],
                env=self._environment(),
                stdout=subprocess.DEVNULL,
            )
        )
        self.spawned += 1

    def tick(self) -> None:
        """Reap dead workers; respawn while the restart budget lasts.

        The fabric's answer to a crash is "attach another worker", and
        this is exactly that, automated.  Called only while the
        campaign is still incomplete, so *any* worker exit here —
        SIGKILL, crash status, even a clean 0 — means a worker the
        campaign still needs is gone.
        """
        for position, proc in enumerate(self.procs):
            status = proc.poll()
            if status is None:
                continue
            self.procs.pop(position)
            if self.restarts < self.config.max_worker_restarts:
                self.restarts += 1
                print(
                    f"fabric: worker exited with status {status} "
                    f"mid-campaign; respawning (restart {self.restarts}/"
                    f"{self.config.max_worker_restarts})",
                    file=sys.stderr,
                    flush=True,
                )
                self._launch()
            break  # list mutated; next tick resumes the sweep
        if not self.procs and self.restarts >= self.config.max_worker_restarts:
            raise RuntimeError(
                "fabric: every local worker is dead and the restart "
                f"budget ({self.config.max_worker_restarts}) is spent; "
                "the campaign cannot finish"
            )

    def shutdown(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        deadline = time.monotonic() + 5.0
        for proc in self.procs:
            remaining = deadline - time.monotonic()
            try:
                proc.wait(timeout=max(0.1, remaining))
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck worker
                proc.kill()
                proc.wait()
        self.procs.clear()


class FabricBackend:
    """Run executor batches on the distributed campaign fabric."""

    name = "fabric"
    #: SupervisedBackend hands the batch to this map instead of running
    #: it: the fabric owns its own fault handling across process
    #: boundaries.
    self_supervising = True

    def __init__(self, config: Optional[FabricConfig] = None) -> None:
        self.config = config
        #: observability for the last map call (benchmarks, tests)
        self.last_stats: Optional[Dict[str, object]] = None

    def _effective_config(self) -> FabricConfig:
        if self.config is not None:
            return self.config
        ambient = current_fabric_config()
        return ambient if ambient is not None else FabricConfig()

    def map(
        self,
        fn: Callable,
        items: Sequence,
        progress: Optional[Callable[[int], None]] = None,
        action_for: Optional[ActionFor] = None,
    ) -> List:
        """Run ``items`` on the fabric; outcomes in batch order.

        ``action_for`` is the supervisor's chaos hook, called per
        payload with the lease's execution index.
        """
        items = list(items)
        if not items:
            # The warm-cache fast path: an all-hits batch reaches the
            # fabric as an empty miss list, and an empty campaign must
            # not stand up servers or spawn a single process.
            self.last_stats = {"items": 0, "workers_spawned": 0, "restarts": 0}
            return []
        config = self._effective_config()
        coordinator = CampaignCoordinator(
            fn,
            items,
            shard_size=config.shard_size,
            lease_timeout_s=config.lease_timeout_s,
            steal_age_s=config.steal_age_s,
            action_for=action_for,
        )
        with coordinator.serving(config.host, config.port) as url:
            if config.announce or config.workers == 0:
                # With no local workers the URL *is* the campaign:
                # external workers need it to attach.
                print(f"fabric: coordinator at {url}", file=sys.stderr, flush=True)
            fleet = _WorkerFleet(url, config)
            fleet.spawn()
            try:
                outcomes = coordinator.wait(
                    progress,
                    poll_s=config.poll_s,
                    tick=fleet.tick if config.workers else None,
                )
            finally:
                fleet.shutdown()
        info = coordinator.progress_info()
        self.last_stats = {
            "items": len(items),
            "shards": coordinator.plan.shard_count,
            "workers_spawned": fleet.spawned,
            "restarts": fleet.restarts,
            "workers_seen": info["workers_seen"],
            "leases_expired": info["leases_expired"],
            "leases_stolen": info["leases_stolen"],
            "completions_rejected": info["completions_rejected"],
        }
        return outcomes
