"""The on-disk content-addressed result store.

Layout — two-hex-character shards under one root, one gzipped entry
per flow::

    <root>/
      ab/abcdef01….json.gz     # entry keyed by its spec's content hash
      cd/cdef2345….json.gz
      quarantine/              # corrupt entries, moved aside verbatim

Each entry decompresses to a small JSON header line
``{schema, key, flow_id, digest}`` followed by the *body*, where
``digest`` is the sha256 of the body's bytes.  The body is the
payload's JSON line (compact, sorted keys) and, for a flow outcome,
a newline and the log's column block
(:meth:`~repro.simulator.metrics.FlowLog.to_columns`) verbatim — no
per-record JSON at all.  Keeping the digested bytes verbatim in the
file means reads hash what they just read; nothing is re-serialised
to check integrity.  Reads verify the digest, the key ↔ filename
binding, and that the column block is exactly as long as the counts
in the JSON line say; anything that fails — truncated gzip, mangled
JSON, digest mismatch, short block — is *quarantined* (moved aside
for post-mortem, never silently deleted) and reported as a miss, so a
corrupted store degrades into recomputation instead of poisoning
campaigns.  An entry written under another schema is *stale*, not
corrupt: a miss that ``gc`` reclaims.

Writes are atomic: the entry is written to a same-directory temp
file and ``os.replace``d into place, so a killed campaign can never
leave a half-written entry where a future read would find it.  The
temp name embeds pid, thread id, and a per-process counter, so any
number of concurrent writers — processes *or* threads (the HTTP
store server handles requests on a thread pool) — each own a private
temp file and can never interleave bytes.  Racing writers of the
same key then collide only at the final ``os.replace``, where the
loser simply overwrites the winner with identical bytes (same key ⇒
same payload ⇒ same file bytes): a silent no-op.  Gzip frames are
stamped with ``mtime=0`` so the same payload always produces the
same file bytes; compression runs at level 1 — a cache trades disk
for time, and heavier levels spend more per write than a campaign
ever gets back.

:func:`encode_entry` / :func:`decode_entry` are the entry format
itself, factored out of the store so the HTTP transport
(:mod:`repro.store.remote`) can ship verbatim entry bytes and both
ends validate the same digests.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import itertools
import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.store.format import COLUMNS, SCHEMA_VERSION, column_block_size
from repro.util.errors import ReproError

__all__ = [
    "CorruptEntryError",
    "ResultStore",
    "StoreStats",
    "decode_entry",
    "encode_entry",
    "parse_entry",
]

_SUFFIX = ".json.gz"
_QUARANTINE_DIR = "quarantine"

#: Disambiguates temp files between threads of one process; combined
#: with pid + thread id in the temp name, every writer is unique.
_TMP_COUNTER = itertools.count()


class CorruptEntryError(ReproError, ValueError):
    """A stored entry failed its integrity check on read."""

    def __init__(self, key: str, reason: str) -> None:
        self.key = key
        self.reason = reason
        super().__init__(f"corrupt store entry {key[:12]}…: {reason}")


@dataclass
class StoreStats:
    """What ``python -m repro.store stats`` reports."""

    root: str
    entries: int = 0
    total_bytes: int = 0
    quarantined: int = 0
    #: schema version -> entry count; anything not on the current
    #: schema is stale and reclaimable by ``gc``
    schemas: Dict[int, int] = field(default_factory=dict)

    @property
    def stale_entries(self) -> int:
        return sum(
            count
            for schema, count in self.schemas.items()
            if schema != SCHEMA_VERSION
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "root": self.root,
            "entries": self.entries,
            "total_bytes": self.total_bytes,
            "quarantined": self.quarantined,
            "schema_version": SCHEMA_VERSION,
            "schemas": {str(k): v for k, v in sorted(self.schemas.items())},
            "stale_entries": self.stale_entries,
        }

    def summary(self) -> str:
        return (
            f"{self.entries} entries ({self.total_bytes} bytes) under "
            f"{self.root}; {self.stale_entries} stale, "
            f"{self.quarantined} quarantined"
        )


# -- entry format (shared by the on-disk store and the HTTP transport)


def encode_entry(key: str, payload: Dict[str, object]) -> bytes:
    """The exact file bytes for one entry.

    The payload minus its :data:`~repro.store.format.COLUMNS` block is
    written as plain JSON, not keys.canonical_json: payloads are
    already JSON-native (format.encode_outcome built them), and floats
    must land in the file as bare shortest-repr literals so the stored
    bytes parse straight back into the payload.  The column block, when
    the payload has one, follows after a newline as raw bytes.
    Deterministic: gzip mtime is pinned to 0, so the same payload
    always encodes to the same bytes — which is what lets the remote
    transport compare and re-verify entries byte-for-byte.
    """
    fields = {name: value for name, value in payload.items() if name != COLUMNS}
    body = json.dumps(fields, sort_keys=True, separators=(",", ":")).encode()
    block = payload.get(COLUMNS)
    if block is not None:
        body = b"\n".join((body, block))
    header = {
        "schema": SCHEMA_VERSION,
        "key": key,
        "flow_id": payload.get("flow_id", ""),
        "digest": hashlib.sha256(body).hexdigest(),
    }
    buffer = io.BytesIO()
    with gzip.GzipFile(
        fileobj=buffer, mode="wb", mtime=0, compresslevel=1
    ) as zipped:
        zipped.write(
            json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        )
        zipped.write(b"\n")
        zipped.write(body)
    return buffer.getvalue()


def parse_entry(raw: bytes, key: str) -> Tuple[Dict[str, object], bytes]:
    """``(header, payload_bytes)`` from one entry's file bytes, with
    the header checked for shape and key ↔ filename binding but the
    payload digest *not* yet verified (that is :func:`decode_entry`)."""
    try:
        blob = gzip.decompress(raw)
    except (OSError, EOFError) as error:
        raise CorruptEntryError(key, f"unreadable entry: {error}") from None
    head, sep, body = blob.partition(b"\n")
    if not sep:
        raise CorruptEntryError(key, "entry has no header line")
    try:
        header = json.loads(head)
    except ValueError as error:
        raise CorruptEntryError(
            key, f"unparseable header: {error}"
        ) from None
    if not isinstance(header, dict):
        raise CorruptEntryError(key, "header is not an object")
    if header.get("key") != key:
        raise CorruptEntryError(
            key, f"header key {header.get('key')!r} != filename key"
        )
    return header, body


def decode_entry(raw: bytes, key: str) -> Optional[Dict[str, object]]:
    """The verified payload inside one entry's file bytes.

    None when the entry was written under a stale schema (gc's
    business, not corruption); :class:`CorruptEntryError` when any
    integrity check fails.
    """
    header, body = parse_entry(raw, key)
    if header.get("schema") != SCHEMA_VERSION:
        return None  # stale, not corrupt: gc's business
    if hashlib.sha256(body).hexdigest() != header.get("digest"):
        raise CorruptEntryError(key, "payload digest mismatch")
    line, sep, block = body.partition(b"\n")
    try:
        payload = json.loads(line)
    except ValueError as error:  # digest collision-with-garbage only
        raise CorruptEntryError(
            key, f"unparseable payload: {error}"
        ) from None
    if not isinstance(payload, dict):
        raise CorruptEntryError(key, "payload is not an object")
    if sep:
        try:
            expected = column_block_size(payload)
        except ValueError as error:
            raise CorruptEntryError(key, str(error)) from None
        if len(block) != expected:
            raise CorruptEntryError(
                key,
                f"column block holds {len(block)} bytes; its counts "
                f"describe {expected}",
            )
        payload[COLUMNS] = block
    return payload


class ResultStore:
    """Content-addressed persistence for flow results."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore({str(self.root)!r})"

    # -- paths ---------------------------------------------------------

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}{_SUFFIX}"

    def _entry_paths(self) -> Iterator[Path]:
        for shard in sorted(self.root.iterdir()):
            if shard.is_dir() and len(shard.name) == 2 and shard.name != _QUARANTINE_DIR:
                yield from sorted(shard.glob(f"*{_SUFFIX}"))

    # -- write ---------------------------------------------------------

    def put(self, key: str, payload: Dict[str, object]) -> Path:
        """Persist one payload atomically under its content key."""
        return self.put_bytes(key, encode_entry(key, payload))

    def put_bytes(self, key: str, raw: bytes) -> Path:
        """Persist pre-encoded entry bytes atomically under ``key``.

        The raw side of :meth:`put`, used by the HTTP store server to
        land transported entries without a decode → re-encode round
        trip.  Callers own validation (:func:`decode_entry`); this
        method owns only atomicity.  The temp name is unique per
        writer (pid + thread id + counter), so concurrent same-key
        writers never share a temp file; the losing ``os.replace``
        lands identical bytes over identical bytes — a silent no-op.
        """
        target = self.path_for(key)
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp = target.parent / (
            f".{key}.{os.getpid()}.{threading.get_ident()}."
            f"{next(_TMP_COUNTER)}.tmp"
        )
        try:
            with open(tmp, "wb") as handle:
                handle.write(raw)
            os.replace(tmp, target)
        finally:
            tmp.unlink(missing_ok=True)  # only present on write failure
        return target

    # -- read ----------------------------------------------------------

    def read_bytes(self, key: str) -> Optional[bytes]:
        """Verbatim entry file bytes, or None when absent.

        The raw side of :meth:`load`, used by the HTTP store server to
        ship entries without a decode → re-encode round trip.
        """
        try:
            return self.path_for(key).read_bytes()
        except FileNotFoundError:
            return None

    def load(self, key: str) -> Optional[Dict[str, object]]:
        """The stored payload, or None when absent / written under a
        stale schema.  Raises :class:`CorruptEntryError` when the entry
        exists but fails integrity."""
        path = self.path_for(key)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as error:
            raise CorruptEntryError(key, f"unreadable entry: {error}") from None
        return decode_entry(raw, key)

    def get(self, key: str) -> Tuple[Optional[Dict[str, object]], bool]:
        """Lenient read: ``(payload_or_None, was_corrupt)``.

        Corrupt entries are quarantined as a side effect so the next
        read of the same key is a clean miss.
        """
        try:
            return self.load(key), False
        except CorruptEntryError:
            self.quarantine(key)
            return None, True

    def _read_entry(
        self, path: Path, key: str
    ) -> Tuple[Dict[str, object], bytes]:
        """``(header, payload_bytes)`` of one entry file, unverified."""
        try:
            raw = path.read_bytes()
        except OSError as error:
            raise CorruptEntryError(key, f"unreadable entry: {error}") from None
        return parse_entry(raw, key)

    def quarantine(self, key: str) -> Optional[Path]:
        """Move a (presumably corrupt) entry aside; None when absent."""
        path = self.path_for(key)
        if not path.exists():
            return None
        target_dir = self.root / _QUARANTINE_DIR
        target_dir.mkdir(parents=True, exist_ok=True)
        target = target_dir / path.name
        os.replace(path, target)
        return target

    # -- maintenance ---------------------------------------------------

    def stats(self) -> StoreStats:
        stats = StoreStats(root=str(self.root))
        for path in self._entry_paths():
            stats.entries += 1
            stats.total_bytes += path.stat().st_size
            try:
                header, _ = self._read_entry(path, path.name[: -len(_SUFFIX)])
                schema = int(header.get("schema", -1))
            except (CorruptEntryError, TypeError, ValueError):
                schema = -1
            stats.schemas[schema] = stats.schemas.get(schema, 0) + 1
        quarantine = self.root / _QUARANTINE_DIR
        if quarantine.is_dir():
            stats.quarantined = sum(1 for _ in quarantine.glob(f"*{_SUFFIX}"))
        return stats

    def verify(self) -> Tuple[int, List[str]]:
        """Re-hash every entry; ``(checked, corrupt_keys)``.

        Read-only: corrupt entries are reported, not moved — pass the
        keys to :meth:`quarantine` (the CLI's ``verify --quarantine``)
        to act on the findings.
        """
        checked = 0
        corrupt: List[str] = []
        for path in self._entry_paths():
            key = path.name[: -len(_SUFFIX)]
            checked += 1
            try:
                self.load(key)
            except CorruptEntryError:
                corrupt.append(key)
        return checked, corrupt

    def repair(self) -> Tuple[int, List[str]]:
        """Quarantine every corrupt entry in one pass; ``(checked, repaired)``.

        The write side of :meth:`verify` (the CLI's ``verify --repair``):
        operators pre-clean a store before a large campaign so no flow
        pays the corrupt-read-then-quarantine detour mid-run.  Stale
        schemas are left for :meth:`gc` — stale is not broken.
        """
        checked, corrupt = self.verify()
        repaired: List[str] = []
        for key in corrupt:
            if self.quarantine(key) is not None:
                repaired.append(key)
        return checked, repaired

    def gc(self) -> Tuple[int, int]:
        """Drop stale-schema and unreadable entries; ``(kept, removed)``."""
        kept = 0
        removed = 0
        for path in self._entry_paths():
            key = path.name[: -len(_SUFFIX)]
            stale = False
            try:
                header, _ = self._read_entry(path, key)
                stale = header.get("schema") != SCHEMA_VERSION
            except CorruptEntryError:
                stale = True
            if stale:
                path.unlink()
                removed += 1
            else:
                kept += 1
        return kept, removed
