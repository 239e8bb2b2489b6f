"""HTTP transport for the content-addressed result store.

Two halves, one wire format:

* :class:`StoreServer` — ``python -m repro.store serve DIR`` — a
  threaded HTTP front over an ordinary :class:`ResultStore`.  Entries
  travel as their verbatim on-disk bytes (the gzip'd
  header-line+payload frame from :func:`repro.store.disk.encode_entry`),
  so the server never re-serialises payloads and the sha256 integrity
  digest inside each entry protects the bytes end to end: the server
  re-validates every uploaded entry before landing it, and clients
  re-verify every download before trusting it.  A transport that ships
  the *stored* bytes inherits the store's integrity story for free.

* :class:`RemoteStore` — a client satisfying the ``ResultStore``
  read/write surface (``get`` / ``put`` / ``load`` / ``quarantine`` /
  ``stats``), so the run context's ``store``
  (:func:`~repro.context.run_context`) can point at ``http://host:port``
  wherever a store is accepted.  One
  ``HTTPConnection`` is kept per client and reused across requests;
  transient transport failures get bounded retries with seeded-jitter
  exponential backoff (:func:`_backoff_s`), and a request that exhausts
  its retries raises
  :class:`OSError` — exactly the exception
  :class:`~repro.store.breaker.StoreCircuitBreaker` absorbs,
  so a dead server downgrades a campaign to uncached execution instead
  of aborting it.

The endpoints::

    GET  /healthz           -> {"status": "ok"}
    GET  /stats             -> StoreStats.to_dict() JSON
    GET  /entry/<key>       -> verbatim entry bytes | 404
    PUT  /entry/<key>       -> validate digest+key binding, land atomically
    POST /quarantine/<key>  -> move the entry aside | 404

Keys are 64 lowercase hex characters (sha256); anything else is a 400
before the store is touched.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, Optional, Tuple, Union
from urllib.parse import urlsplit

from repro.store.disk import (
    CorruptEntryError,
    ResultStore,
    StoreStats,
    decode_entry,
    encode_entry,
)
from repro.util.rng import derive_seed

__all__ = ["RemoteStore", "StoreServer", "open_store"]

_KEY_RE = re.compile(r"^[0-9a-f]{64}$")


#: Transport retry schedule: two retries on top of the first attempt,
#: 50 ms seeded-jitter exponential backoff.  Deliberately short — the
#: circuit breaker above this layer handles a server that is *down*;
#: these retries only smooth over a connection reset or a restart blip.
_REQUEST_ATTEMPTS = 3
#: seconds slept before retry 1; retry ``n`` waits
#: ``_BACKOFF_BASE_S * _BACKOFF_FACTOR ** (n - 1)`` plus jitter
_BACKOFF_BASE_S = 0.05
_BACKOFF_FACTOR = 2.0
#: fraction of the backoff added as seeded jitter (decorrelates retry
#: bursts across clients without breaking determinism)
_BACKOFF_JITTER = 0.1


def _backoff_s(seed: int, attempt: int) -> float:
    """Deterministic sleep (seconds) before ``attempt``, with seeded jitter.

    Attempt 0 never waits; attempt ``n`` waits the exponential base plus
    a jitter fraction drawn from ``seed`` — a pure function of
    ``(seed, attempt)``, so two clients back off identically.
    """
    if attempt <= 0:
        return 0.0
    base = _BACKOFF_BASE_S * _BACKOFF_FACTOR ** (attempt - 1)
    # 53-bit uniform in [0, 1) from a SplitMix64 derivation; no RNG
    # object, no global state.
    unit = (derive_seed(seed, "backoff", attempt) >> 11) / float(1 << 53)
    return base * (1.0 + _BACKOFF_JITTER * unit)


class _QuietThreadingHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that doesn't traceback on vanished clients.

    A SIGKILLed client leaves its half-open socket behind; the
    stdlib default prints a full traceback per reset connection, which
    would swamp the stderr of every chaos drill.  Connection-level
    errors are a normal fact of fleet life and are dropped silently;
    anything else still surfaces (one line, not forty).
    """

    daemon_threads = True

    def handle_error(self, request, client_address):  # noqa: D102
        import sys as _sys

        error = _sys.exc_info()[1]
        if isinstance(error, (BrokenPipeError, ConnectionResetError, TimeoutError)):
            return
        print(
            f"http server: error handling {client_address}: "
            f"{type(error).__name__}: {error}",
            file=_sys.stderr,
            flush=True,
        )


class _Transport:
    """One kept-alive HTTP connection with bounded retries: the
    client half of :class:`RemoteStore`."""

    def __init__(
        self,
        url: str,
        *,
        timeout_s: float = 10.0,
        attempts: int = _REQUEST_ATTEMPTS,
    ) -> None:
        parts = urlsplit(url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(f"URL must be http://host:port, got {url!r}")
        self.url = url.rstrip("/")
        self.host = parts.hostname
        self.port = parts.port or 80
        self.timeout_s = timeout_s
        self.attempts = attempts
        self._conn: Optional[http.client.HTTPConnection] = None

    # A client crossing a process boundary must not drag a socket along.
    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state["_conn"] = None
        return state

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except Exception:  # pragma: no cover - close is best-effort
                pass
            self._conn = None

    def request(
        self, method: str, path: str, body: Optional[bytes] = None, *, seed: int = 0
    ) -> Tuple[int, bytes]:
        """``(status, body)`` with connection reuse and bounded retries.

        Retries cover transport-level failures and 5xx responses; the
        backoff schedule is :func:`_backoff_s` seeded per key, so a
        thousand workers hammering a restarting server do not retry in
        lockstep.  4xx responses are returned to the caller — the
        request is wrong, not the wire.
        """
        last_error: Optional[Exception] = None
        for attempt in range(self.attempts):
            if attempt:
                time.sleep(_backoff_s(seed, attempt))
            try:
                conn = self._connection()
                conn.request(method, path, body=body)
                response = conn.getresponse()
                payload = response.read()
            except (OSError, http.client.HTTPException) as error:
                self.close()
                last_error = error
                continue
            if response.status >= 500:
                last_error = OSError(
                    f"server error {response.status} for {method} {path}"
                )
                continue
            return response.status, payload
        raise OSError(
            f"{self.url} unreachable after {self.attempts} attempts: "
            f"{last_error}"
        )

    def request_json(self, method: str, path: str) -> Dict[str, object]:
        """A request that must answer 200 with a JSON body."""
        status, raw = self.request(method, path)
        if status != 200:
            raise OSError(f"{method} {self.url}{path} failed with {status}")
        return json.loads(raw)


# -- server ------------------------------------------------------------


class _StoreHandler(BaseHTTPRequestHandler):
    """The store endpoint's request handler.

    Keep-alive HTTP/1.1 with quiet logging and a Content-Length
    responder, so a client's kept connection knows where each body
    ends.  ``disable_nagle_algorithm`` matters: a response goes out as
    a header write then a body write, and with Nagle on the body waits
    for the client's delayed ACK of the headers — a 40 ms stall on
    every request.
    """

    server_version = "repro-store"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # request logging would swamp campaign stderr

    def _respond(
        self, status: int, body: bytes, content_type: str = "application/json"
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _respond_json(self, status: int, payload: Dict[str, object]) -> None:
        self._respond(status, json.dumps(payload, sort_keys=True).encode())

    def _read_body(self) -> bytes:
        return self.rfile.read(int(self.headers.get("Content-Length", "0")))

    def _entry_key(self, prefix: str) -> Optional[str]:
        if not self.path.startswith(prefix):
            return None
        key = self.path[len(prefix):]
        if not _KEY_RE.match(key):
            self._respond_json(400, {"error": f"bad key {key[:80]!r}"})
            return None
        return key

    @property
    def _store(self) -> ResultStore:
        return self.server.store  # type: ignore[attr-defined]

    def _count(self, op: str) -> None:
        self.server.owner.count(op)  # type: ignore[attr-defined]

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler name
        if self.path == "/healthz":
            self._respond_json(200, {"status": "ok"})
            return
        if self.path == "/stats":
            self._count("stats")
            self._respond_json(200, self._store.stats().to_dict())
            return
        key = self._entry_key("/entry/")
        if key is None:
            if not self.path.startswith("/entry/"):
                self._respond_json(404, {"error": "unknown path"})
            return
        self._count("get")
        raw = self._store.read_bytes(key)
        if raw is None:
            self._respond_json(404, {"error": "absent"})
            return
        self._respond(200, raw, content_type="application/gzip")

    def do_PUT(self) -> None:  # noqa: N802 - stdlib handler name
        key = self._entry_key("/entry/")
        if key is None:
            if not self.path.startswith("/entry/"):
                self._respond_json(404, {"error": "unknown path"})
            return
        self._count("put")
        raw = self._read_body()
        # Validate before landing: a transport error or a lying client
        # must never plant an entry that reads back corrupt.
        try:
            payload = decode_entry(raw, key)
        except CorruptEntryError as error:
            self._respond_json(400, {"error": str(error)})
            return
        if payload is None:
            self._respond_json(400, {"error": "stale schema"})
            return
        self._store.put_bytes(key, raw)
        self._respond_json(200, {"status": "stored"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler name
        key = self._entry_key("/quarantine/")
        if key is None:
            if not self.path.startswith("/quarantine/"):
                self._respond_json(404, {"error": "unknown path"})
            return
        self._count("quarantine")
        moved = self._store.quarantine(key)
        if moved is None:
            self._respond_json(404, {"error": "absent"})
            return
        self._respond_json(200, {"status": "quarantined"})


class StoreServer:
    """A threaded HTTP front over one :class:`ResultStore` directory."""

    def __init__(
        self,
        store: Union[ResultStore, str, os.PathLike],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        if not isinstance(store, ResultStore):
            store = ResultStore(store)
        self.store = store
        self._http = _QuietThreadingHTTPServer((host, port), _StoreHandler)
        self._http.store = store  # type: ignore[attr-defined]
        self._http.owner = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        #: op name -> request count; ``request_count`` sums it — the
        #: benchmark's store-round-trip ledger.
        self.counters: Dict[str, int] = {}

    def count(self, op: str) -> None:
        with self._lock:
            self.counters[op] = self.counters.get(op, 0) + 1

    @property
    def request_count(self) -> int:
        with self._lock:
            return sum(self.counters.values())

    @property
    def url(self) -> str:
        host, port = self._http.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "StoreServer":
        """Serve on a daemon thread (embedded use); returns self."""
        self._thread = threading.Thread(
            target=self._http.serve_forever, name="repro-store-server", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI's ``serve``)."""
        self._http.serve_forever()

    def close(self) -> None:
        self._http.shutdown()
        self._http.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "StoreServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()


# -- client ------------------------------------------------------------


class RemoteStore:
    """A ``ResultStore``-shaped client for a :class:`StoreServer`.

    Transport failures surface as :class:`OSError` after bounded
    retries, which is the contract
    :class:`~repro.store.breaker.StoreCircuitBreaker` expects — so a
    campaign pointed at a dead server degrades to uncached execution
    exactly like one pointed at a dead disk.
    """

    def __init__(self, url: str, *, timeout_s: float = 10.0) -> None:
        self._transport = _Transport(url, timeout_s=timeout_s)
        self.url = self._transport.url

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RemoteStore({self.url!r})"

    @staticmethod
    def _seed_for(key: str) -> int:
        return int(key[:8], 16) if _KEY_RE.match(key) else 0

    # -- ResultStore surface -------------------------------------------

    def load(self, key: str) -> Optional[Dict[str, object]]:
        """The stored payload, or None when absent / stale; raises
        :class:`CorruptEntryError` on integrity failure (strict read,
        mirroring :meth:`ResultStore.load`)."""
        status, raw = self._transport.request(
            "GET", f"/entry/{key}", seed=self._seed_for(key)
        )
        if status == 404:
            return None
        if status != 200:
            raise OSError(f"remote store GET {key[:12]}… failed with {status}")
        return decode_entry(raw, key)

    def get(self, key: str) -> Tuple[Optional[Dict[str, object]], bool]:
        """Lenient read: ``(payload_or_None, was_corrupt)``; corrupt
        downloads are quarantined server-side, best-effort."""
        try:
            return self.load(key), False
        except CorruptEntryError:
            try:
                self.quarantine(key)
            except OSError:  # quarantine is advisory; the miss stands
                pass
            return None, True

    def put(self, key: str, payload: Dict[str, object]) -> str:
        raw = encode_entry(key, payload)
        status, body = self._transport.request(
            "PUT", f"/entry/{key}", body=raw, seed=self._seed_for(key)
        )
        if status != 200:
            raise OSError(
                f"remote store PUT {key[:12]}… rejected with {status}: "
                f"{body[:200]!r}"
            )
        return f"{self.url}/entry/{key}"

    def quarantine(self, key: str) -> Optional[str]:
        status, _ = self._transport.request(
            "POST", f"/quarantine/{key}", seed=self._seed_for(key)
        )
        if status == 404:
            return None
        if status != 200:
            raise OSError(f"remote store quarantine {key[:12]}… failed with {status}")
        return f"{self.url}/quarantine/{key}"

    def stats(self) -> StoreStats:
        data = self._transport.request_json("GET", "/stats")
        return StoreStats(
            root=str(data.get("root", self.url)),
            entries=int(data.get("entries", 0)),
            total_bytes=int(data.get("total_bytes", 0)),
            quarantined=int(data.get("quarantined", 0)),
            schemas={int(k): v for k, v in data.get("schemas", {}).items()},
        )

    def healthy(self) -> bool:
        """One non-retried probe; False instead of raising."""
        probe = _Transport(
            self.url, timeout_s=self._transport.timeout_s, attempts=1
        )
        try:
            return probe.request("GET", "/healthz")[0] == 200
        except OSError:
            return False
        finally:
            probe.close()

    def close(self) -> None:
        self._transport.close()


# -- opening stores by reference ---------------------------------------


def open_store(
    ref: Union[str, os.PathLike, ResultStore, RemoteStore],
) -> Union[ResultStore, RemoteStore]:
    """A store from any reference a CLI flag or config field carries.

    ``http://host:port`` opens a :class:`RemoteStore`; anything else is
    a directory path for a local :class:`ResultStore`; an already-open
    store passes through.  This is the single point where "a store" is
    spelled, so every ``--store`` flag accepts both spellings.
    """
    if isinstance(ref, (ResultStore, RemoteStore)):
        return ref
    if isinstance(ref, str) and ref.startswith(("http://", "https://")):
        if ref.startswith("https://"):
            raise ValueError("remote store transport is plain http:// only")
        return RemoteStore(ref)
    if isinstance(ref, (str, os.PathLike)):
        return ResultStore(Path(ref))
    raise TypeError(f"cannot open a store from {type(ref).__name__}")
