"""Ambient store configuration (the CLI's ``--store`` plumbing).

Mirrors :func:`repro.robustness.faults.fault_scope` and
:func:`repro.telemetry.telemetry_scope`: a ContextVar scope installs a
:class:`StoreConfig`, and :meth:`Executor.run
<repro.exec.executor.Executor.run>` partitions its batch against the
store and persists the fresh results (:mod:`repro.store.backend`)
whenever one is ambient — which is how ``--store DIR`` reaches every executor-driven campaign and
sweep without threading a parameter through 18 experiment drivers.

Like the other ambient scopes this does **not** cross a spawn boundary;
that is fine, because cache partitioning happens in the parent process
(the pool only ever sees the misses).
"""

from __future__ import annotations

import contextlib
import os
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from repro.store.disk import ResultStore
from repro.store.remote import RemoteStore, open_store

__all__ = ["StoreConfig", "current_store", "current_store_config", "store_scope"]


@dataclass(frozen=True)
class StoreConfig:
    """The ambient caching policy: where, and whether to read back."""

    store: Union[ResultStore, RemoteStore]
    #: True = ignore existing entries but still write fresh ones
    #: (the CLI's ``--no-cache``)
    refresh: bool = False


_ambient_store: ContextVar[Optional[StoreConfig]] = ContextVar(
    "repro_ambient_store", default=None
)


def current_store_config() -> Optional[StoreConfig]:
    """The ambient config installed by :func:`store_scope`, if any."""
    return _ambient_store.get()


def current_store() -> Optional[ResultStore]:
    """The ambient store itself, if any."""
    config = _ambient_store.get()
    return config.store if config is not None else None


@contextlib.contextmanager
def store_scope(
    store: Optional[Union[str, os.PathLike, ResultStore, RemoteStore]],
    *,
    refresh: bool = False,
) -> Iterator[Optional[Union[ResultStore, RemoteStore]]]:
    """Install ``store`` ambiently for the duration of the block.

    ``store=None`` is a no-op scope (so callers can pass an optional
    CLI argument straight through); a directory string or path is
    opened as a :class:`ResultStore` rooted there, and an ``http://``
    URL as a :class:`~repro.store.remote.RemoteStore` client.
    """
    if store is None:
        yield None
        return
    if isinstance(store, (str, os.PathLike)):
        store = open_store(store)
    token = _ambient_store.set(StoreConfig(store=store, refresh=refresh))
    try:
        yield store
    finally:
        _ambient_store.reset(token)
