"""A circuit breaker between the cache layer and the result store.

A result store is an optimisation, never a dependency: when the disk
fills, a shard directory loses its permissions, or entries corrupt
faster than quarantine can absorb, a campaign must degrade to uncached
execution — not abort.  :class:`StoreCircuitBreaker` wraps the three
store operations the cache layer performs (``get``, ``put``,
``quarantine``) and absorbs their :class:`OSError`\\ s: each failure is
counted, and after ``threshold`` *consecutive* failures the circuit
opens — every subsequent operation short-circuits to "miss"/"don't
persist" without touching the disk at all, with one loud stderr note so
the operator learns the campaign is running uncached.

A success while the circuit is still closed resets the consecutive
count (a blip is a blip); an open circuit stays open for the breaker's
lifetime — one ``Executor.run`` batch — because a disk that just
filled does not un-fill mid-campaign, and re-probing it per flow would
pay the failure latency hundreds of times.  The next campaign run gets
a fresh breaker and re-probes naturally.

The flows executed while the breaker is open (or whose individual store
operation failed) surface as ``cache_state="error"`` on their outcomes,
which the executor rolls up into ``CampaignReport.cache_errors`` and
the telemetry layer counts as ``store_errors`` — visible, but never
serialised into report bytes, so a degraded run still byte-matches a
healthy one.
"""

from __future__ import annotations

import sys
from typing import Dict, Optional, Tuple

__all__ = ["StoreCircuitBreaker"]


class StoreCircuitBreaker:
    """Fail-open wrapper around a :class:`~repro.store.disk.ResultStore`."""

    def __init__(self, store, threshold: int = 3) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.store = store
        self.threshold = threshold
        #: total failed operations (monotone; telemetry's store_errors)
        self.errors = 0
        self._consecutive = 0
        self._open = False
        self._noted = False

    @property
    def open(self) -> bool:
        """True once the breaker has given up on the store."""
        return self._open

    def get(self, key: str) -> Tuple[Optional[Dict[str, object]], bool, bool]:
        """``(payload, was_corrupt, degraded)`` — store semantics plus a
        degraded flag.

        ``degraded=True`` means the store was not consulted (open
        circuit) or the read itself failed: the caller must treat the
        flow as an uncached miss and *not* blame the entry.
        """
        if self._open:
            return None, False, True
        try:
            payload, was_corrupt = self.store.get(key)
        except OSError as error:
            self._record_failure("read", error)
            return None, False, True
        self._consecutive = 0
        return payload, was_corrupt, False

    def put(self, key: str, payload: Dict[str, object]) -> bool:
        """Persist if the circuit allows; True when the write landed."""
        if self._open:
            return False
        try:
            self.store.put(key, payload)
        except OSError as error:
            self._record_failure("write", error)
            return False
        self._consecutive = 0
        return True

    def quarantine(self, key: str) -> bool:
        """Quarantine if the circuit allows; True when the move landed."""
        if self._open:
            return False
        try:
            self.store.quarantine(key)
        except OSError as error:
            self._record_failure("quarantine", error)
            return False
        self._consecutive = 0
        return True

    def _record_failure(self, op: str, error: OSError) -> None:
        self.errors += 1
        self._consecutive += 1
        if self._consecutive >= self.threshold and not self._open:
            self._open = True
            if not self._noted:
                self._noted = True
                print(
                    f"store: circuit breaker OPEN after "
                    f"{self._consecutive} consecutive failures "
                    f"(last: {op}: {type(error).__name__}: {error}); "
                    "continuing UNCACHED — results from here on are "
                    "computed fresh and not persisted",
                    file=sys.stderr,
                    flush=True,
                )
