"""The result store's two stages of :meth:`Executor.run
<repro.exec.executor.Executor.run>`, both in the parent process.

:func:`partition` content-hashes every payload's spec and decodes the
hits straight from the store; the executor runs only the misses;
:func:`persist` writes the fresh successful results back and files
every outcome at its payload position.  A cached campaign is therefore
byte-identical to an uncached one, and an all-hits batch (a warm rerun,
or the finished part of a resumed campaign) never reaches a placement
or spawns a process.

Store I/O goes through one :class:`~repro.store.breaker.StoreCircuitBreaker`
per batch: a failing disk degrades the batch to uncached execution
(``cache_state="error"``) instead of aborting it.  Specs that cannot be
content-hashed run fresh every time and are never stored; corrupt
entries are quarantined by the store and recomputed.  ``flow_key``,
``encode_outcome`` and ``decode_outcome`` are looked up as this
module's globals, which is where ``campaignbench`` times them.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from repro.exec.executor import FlowOutcome
from repro.store.breaker import StoreCircuitBreaker
from repro.store.format import decode_outcome, encode_outcome
from repro.store.keys import UnhashableSpecError, flow_key

__all__ = ["Miss", "partition", "persist"]


class Miss(NamedTuple):
    """A payload the store could not serve, and what persisting it needs."""

    position: int
    payload: Tuple
    #: None for an uncacheable spec: it runs, but is never stored
    key: Optional[str]
    corrupt: bool
    #: the store failed while reading this entry
    degraded: bool


def partition(
    breaker: StoreCircuitBreaker,
    payloads: Sequence[Tuple],
    *,
    refresh: bool = False,
    progress: Optional[Callable[[int], None]] = None,
) -> Tuple[List[Optional[FlowOutcome]], List[Miss]]:
    """Serve what the store holds; ``(outcomes, misses)``.

    ``outcomes`` holds the decoded hits at their positions and None
    where a miss still has to run.  ``refresh=True`` (the CLI's
    ``--no-cache``) skips every read but keeps the keys, so
    :func:`persist` still writes: each flow recomputes and overwrites
    its entry — cache repair, not cache bypass.  ``progress`` is called
    with the running hit count.
    """
    outcomes: List[Optional[FlowOutcome]] = [None] * len(payloads)
    misses: List[Miss] = []
    hits = 0
    for position, payload in enumerate(payloads):
        index, spec = payload
        try:
            key = flow_key(spec)
        except UnhashableSpecError:
            key = None
        stored = None
        corrupt = degraded = False
        if key is not None and not refresh:
            stored, corrupt, degraded = breaker.get(key)
        if stored is None:
            misses.append(Miss(position, payload, key, corrupt, degraded))
            continue
        outcome = decode_outcome(stored, index=index, spec=spec)
        outcome.cache_state = "hit"
        outcomes[position] = outcome
        hits += 1
        if progress is not None:
            progress(hits)
    return outcomes, misses


def persist(
    breaker: StoreCircuitBreaker,
    misses: Sequence[Miss],
    fresh: Sequence[FlowOutcome],
    outcomes: List[Optional[FlowOutcome]],
) -> List[FlowOutcome]:
    """Store the misses' fresh outcomes and file them into ``outcomes``.

    ``fresh`` holds one outcome per miss, in order.  Each is labelled
    ``"miss"``, ``"corrupt"`` (recomputed after quarantining a damaged
    entry) or ``"error"`` (the store failed around it); only successful
    outcomes of hashable specs are written.  Returns ``outcomes``, now
    the whole batch in payload order.
    """
    for miss, outcome in zip(misses, fresh):
        outcomes[miss.position] = outcome
        if outcome.skipped:
            # A signal drain never ran this spec: nothing to persist,
            # nothing to label.
            continue
        stored_ok = True
        if miss.key is not None and outcome.ok:
            stored_ok = breaker.put(miss.key, encode_outcome(outcome))
        if miss.degraded or not stored_ok:
            outcome.cache_state = "error"
        else:
            outcome.cache_state = "corrupt" if miss.corrupt else "miss"
    return outcomes
