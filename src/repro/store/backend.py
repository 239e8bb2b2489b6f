"""CachedBackend: hit/miss partitioning around any executor backend.

Wraps a :class:`~repro.exec.executor.SerialBackend`,
:class:`~repro.exec.executor.ProcessPoolBackend`, or
:class:`~repro.exec.executor.AutoBackend` (anything with the backend
``map`` protocol) and consults a :class:`~repro.store.disk.ResultStore`
before running anything:

1. every payload's spec is content-hashed (:func:`~repro.store.keys.flow_key`);
2. hits are decoded straight from the store — the simulator never runs;
3. only the misses go to the inner backend, exactly as a smaller batch;
4. fresh successful results are persisted, and the merged outcome list
   is returned **in the original payload order**, so a cached campaign
   is byte-identical to an uncached one.

Because all-hit batches hand the inner backend an empty list, a warm
rerun of a pool campaign never even spawns workers — resuming a killed
255-flow campaign costs only the flows that were still missing.

Specs that cannot be content-hashed (opaque callables in their graph)
run fresh every time and are never stored; corrupt entries are
quarantined by the store and recomputed here.  The partition of the
last ``map`` call is kept on :attr:`last_stats` for benchmarks and
reports.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Sequence

from repro.exec.executor import FlowOutcome, SerialBackend
from repro.store.breaker import StoreCircuitBreaker
from repro.store.format import decode_outcome, encode_outcome
from repro.store.remote import open_store
from repro.store.keys import UnhashableSpecError, flow_key

__all__ = ["CachedBackend"]


class CachedBackend:
    """A result-store read-through/write-through cache over a backend.

    ``refresh=True`` (the CLI's ``--no-cache``) skips all reads but
    still writes: every flow recomputes and overwrites its entry —
    cache repair, not cache bypass.

    Store I/O goes through a fresh
    :class:`~repro.store.breaker.StoreCircuitBreaker` per ``map`` call:
    a failing disk degrades the batch to uncached execution
    (``cache_state="error"`` on the affected outcomes) instead of
    aborting it.
    """

    def __init__(self, store, inner=None, *, refresh: bool = False) -> None:
        if isinstance(store, (str, os.PathLike)):
            # Accepts a directory path or an http:// store-server URL.
            store = open_store(store)
        self.store = store
        self.inner = inner if inner is not None else SerialBackend()
        self.refresh = refresh
        #: partition of the last map call: hits/misses/corrupt/uncacheable
        self.last_stats: Optional[Dict[str, int]] = None

    @property
    def name(self) -> str:
        return f"cached[{getattr(self.inner, 'name', 'backend')}]"

    def map(
        self,
        fn: Callable,
        items: Sequence,
        progress: Optional[Callable[[int], None]] = None,
    ) -> List[FlowOutcome]:
        items = list(items)
        breaker = StoreCircuitBreaker(self.store)
        outcomes: List[Optional[FlowOutcome]] = [None] * len(items)
        misses = []  # (position, payload, key, was_corrupt, degraded)
        hits = corrupt = uncacheable = errors = 0
        for position, payload in enumerate(items):
            index, spec, _policy = payload
            try:
                key = flow_key(spec)
            except UnhashableSpecError:
                key = None
                uncacheable += 1
            stored = None
            was_corrupt = degraded = False
            if key is not None and not self.refresh:
                stored, was_corrupt, degraded = breaker.get(key)
                if was_corrupt:
                    corrupt += 1
            if stored is not None:
                outcome = decode_outcome(stored, index=index, spec=spec)
                outcome.cache_state = "hit"
                outcomes[position] = outcome
                hits += 1
                if progress is not None:
                    progress(hits)
            else:
                misses.append((position, payload, key, was_corrupt, degraded))

        if misses:
            inner_progress = (
                None if progress is None else (lambda done: progress(hits + done))
            )
            fresh = self.inner.map(
                fn, [payload for _, payload, _, _, _ in misses], inner_progress
            )
            for (position, _payload, key, was_corrupt, degraded), outcome in zip(
                misses, fresh
            ):
                if outcome.skipped:
                    # A signal drain never ran this spec: nothing to
                    # persist, nothing to label.
                    outcomes[position] = outcome
                    continue
                stored_ok = True
                if key is not None and outcome.ok:
                    stored_ok = breaker.put(key, encode_outcome(outcome))
                if degraded or not stored_ok:
                    outcome.cache_state = "error"
                    errors += 1
                else:
                    outcome.cache_state = "corrupt" if was_corrupt else "miss"
                outcomes[position] = outcome

        self.last_stats = {
            "items": len(items),
            "hits": hits,
            "misses": len(misses),
            "corrupt": corrupt,
            "uncacheable": uncacheable,
            "errors": errors,
        }
        return outcomes
