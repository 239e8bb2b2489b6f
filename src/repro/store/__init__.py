"""repro.store: content-addressed persistence for flow results.

Never pay twice for a flow already simulated.  Every
:class:`~repro.exec.FlowSpec` is deterministic, so its sha256 content
key (:func:`flow_key` — canonical spec encoding salted with the cc
registry and engine schema versions) addresses its entire result:

* :class:`ResultStore` — sharded ``<root>/ab/abcdef….json.gz`` entries
  with integrity digests, atomic writes, and corruption quarantine;
* the ``store`` field of :func:`~repro.context.run_context` — the
  plumbing behind the experiments CLI's ``--store DIR`` / ``--no-cache``
  flags: with a store installed, every :meth:`Executor.run
  <repro.exec.Executor.run>` serves hits from it, runs only the misses
  and merges in spec order (:mod:`repro.store.backend`) — cached
  campaigns stay byte-identical to uncached ones.

Resumability falls out: a campaign killed midway has already persisted
every completed flow, so rerunning the same command executes only the
remainder.  ``python -m repro.store`` offers ``stats`` / ``verify`` /
``gc`` maintenance over a store directory, and ``serve`` exposes one
over HTTP (:class:`StoreServer`) so remote campaign workers can share
it through a :class:`RemoteStore` client — same entry bytes, same
integrity digests, same read/write surface (:func:`open_store` turns
either spelling, directory or ``http://`` URL, into a store).
"""

from repro.store.breaker import StoreCircuitBreaker
from repro.store.disk import (
    CorruptEntryError,
    ResultStore,
    StoreStats,
    decode_entry,
    encode_entry,
)
from repro.store.format import SCHEMA_VERSION, decode_outcome, encode_outcome
from repro.store.remote import RemoteStore, StoreServer, open_store
from repro.store.keys import (
    ENGINE_SCHEMA_VERSION,
    UnhashableSpecError,
    canonical_json,
    flow_key,
)
from repro.context import run_context

__all__ = [
    "CorruptEntryError",
    "ENGINE_SCHEMA_VERSION",
    "RemoteStore",
    "ResultStore",
    "SCHEMA_VERSION",
    "StoreCircuitBreaker",
    "StoreServer",
    "StoreStats",
    "UnhashableSpecError",
    "canonical_json",
    "decode_entry",
    "decode_outcome",
    "encode_entry",
    "encode_outcome",
    "flow_key",
    "open_store",
    "store_scope",
]


def store_scope(store):
    """``run_context(store=store)``, the spelling ``campaignbench`` uses."""
    return run_context(store=store)
