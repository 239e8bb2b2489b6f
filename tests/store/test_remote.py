"""The HTTP store transport: server, client, and failure degradation.

The transport ships the store's verbatim on-disk entry bytes, so the
sha256 digest inside each entry protects the payload end to end; a
dead or lying server must degrade exactly like a dead or lying disk —
OSError into the circuit breaker, quarantine on corruption, never an
aborted campaign.
"""

import http.client
import json
import time

import pytest

from repro.robustness.campaign import RetryPolicy
from repro.store import (
    CorruptEntryError,
    RemoteStore,
    ResultStore,
    StoreCircuitBreaker,
    StoreServer,
    open_store,
)
from repro.store.disk import encode_entry
from tests.store.entries import column_payload, truncate_block

KEY = "ab" * 32
OTHER = "cd" * 32
PAYLOAD = {"flow_id": "remote/0", "throughput": 12.5}


@pytest.fixture()
def server(tmp_path):
    with StoreServer(tmp_path / "store") as srv:
        yield srv


def _fast_retries():
    return RetryPolicy(max_retries=1, backoff_base_s=0.01)


class TestRoundTrip:
    def test_put_load_get_round_trip(self, server):
        client = RemoteStore(server.url)
        location = client.put(KEY, PAYLOAD)
        assert KEY in location
        assert client.load(KEY) == PAYLOAD
        assert client.get(KEY) == (PAYLOAD, False)
        # the entry landed as ordinary on-disk bytes: a local store
        # over the same directory reads it back identically
        assert server.store.load(KEY) == PAYLOAD

    def test_absent_key_is_a_clean_miss(self, server):
        client = RemoteStore(server.url)
        assert client.load(OTHER) is None
        assert client.get(OTHER) == (None, False)
        assert client.quarantine(OTHER) is None

    def test_stats_cross_the_wire(self, server):
        client = RemoteStore(server.url)
        client.put(KEY, PAYLOAD)
        stats = client.stats()
        assert stats.entries == 1
        assert stats.total_bytes > 0
        assert server.request_count >= 2  # the put + the stats call

    def test_healthz(self, server):
        assert RemoteStore(server.url).healthy() is True

    def test_connection_is_reused_across_requests(self, server):
        client = RemoteStore(server.url)
        client.put(KEY, PAYLOAD)
        first = client._transport._conn
        client.load(KEY)
        assert client._transport._conn is first

    def test_sequential_misses_do_not_stall(self, server):
        """Fifty sequential misses over one kept connection.  A handler
        that leaves Nagle on stalls each response ~40 ms on the
        client's delayed ACK (about 2 s in all)."""
        client = RemoteStore(server.url)
        start = time.perf_counter()
        for _ in range(50):
            assert client.get(OTHER) == (None, False)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5, f"50 misses took {elapsed:.2f}s"


class TestIntegrity:
    def test_server_side_corruption_quarantines_on_get(self, server):
        client = RemoteStore(server.url)
        client.put(KEY, PAYLOAD)
        path = server.store.path_for(KEY)
        path.write_bytes(path.read_bytes()[:10])  # torn gzip frame
        with pytest.raises(CorruptEntryError):
            client.load(KEY)
        assert client.get(KEY) == (None, True)
        # quarantined server-side: gone from the main tree, kept aside
        assert server.store.read_bytes(KEY) is None
        assert server.store.stats().quarantined == 1

    def test_server_rejects_a_lying_upload(self, server):
        # hand-roll a PUT whose bytes are a valid entry for a
        # *different* key: the server must refuse to land it
        raw = encode_entry(OTHER, PAYLOAD)
        conn = http.client.HTTPConnection(
            *server.url.removeprefix("http://").split(":"), timeout=5.0
        )
        try:
            conn.request("PUT", f"/entry/{KEY}", body=raw)
            response = conn.getresponse()
            body = response.read()
        finally:
            conn.close()
        assert response.status == 400
        assert b"bound to key" in body or b"error" in body
        assert server.store.read_bytes(KEY) is None

    def test_server_rejects_garbage_keys(self, server):
        conn = http.client.HTTPConnection(
            *server.url.removeprefix("http://").split(":"), timeout=5.0
        )
        try:
            conn.request("GET", "/entry/not-a-key")
            response = conn.getresponse()
            response.read()
            assert response.status == 400
            conn.request("GET", "/nope")
            response = conn.getresponse()
            assert json.loads(response.read()) == {"error": "unknown path"}
            assert response.status == 404
        finally:
            conn.close()


    def test_column_entry_put_is_verified_server_side(self, server):
        payload = column_payload()
        RemoteStore(server.url).put(KEY, payload)
        assert server.store.load(KEY) == payload
        # the same entry one block byte short, digest recomputed: the
        # server's length check refuses it
        raw = truncate_block(encode_entry(OTHER, payload))
        conn = http.client.HTTPConnection(
            *server.url.removeprefix("http://").split(":"), timeout=5.0
        )
        try:
            conn.request("PUT", f"/entry/{OTHER}", body=raw)
            response = conn.getresponse()
            body = response.read()
        finally:
            conn.close()
        assert response.status == 400
        assert b"column block" in body
        assert server.store.read_bytes(OTHER) is None


class TestFailureDegradation:
    def test_dead_server_raises_oserror(self, server):
        url = server.url
        server.close()
        client = RemoteStore(url, retry_policy=_fast_retries())
        with pytest.raises(OSError):
            client.load(KEY)
        with pytest.raises(OSError):
            client.put(KEY, PAYLOAD)
        assert client.healthy() is False

    def test_breaker_degrades_a_dead_remote_store(self, server, capsys):
        url = server.url
        server.close()
        breaker = StoreCircuitBreaker(
            RemoteStore(url, retry_policy=_fast_retries()), threshold=3
        )
        for _ in range(3):
            assert breaker.get(KEY) == (None, False, True)
        assert breaker.open
        assert "circuit breaker OPEN" in capsys.readouterr().err

    def test_client_survives_a_server_restart_blip(self, tmp_path):
        # same directory, two server lifetimes: the client's kept
        # connection dies with the first server and the retry path
        # re-establishes it against the second
        root = tmp_path / "store"
        with StoreServer(root) as first:
            port = int(first.url.rsplit(":", 1)[1])
            client = RemoteStore(first.url, retry_policy=_fast_retries())
            client.put(KEY, PAYLOAD)
        with StoreServer(root, port=port):
            assert client.load(KEY) == PAYLOAD


class TestOpenStore:
    def test_url_opens_a_remote_store(self, server):
        store = open_store(server.url)
        assert isinstance(store, RemoteStore)

    def test_path_opens_a_result_store(self, tmp_path):
        store = open_store(str(tmp_path / "s"))
        assert isinstance(store, ResultStore)

    def test_open_stores_pass_through(self, tmp_path, server):
        local = ResultStore(tmp_path / "s")
        remote = RemoteStore(server.url)
        assert open_store(local) is local
        assert open_store(remote) is remote

    def test_https_is_refused(self):
        with pytest.raises(ValueError):
            open_store("https://example.test:8080")

    def test_junk_is_refused(self):
        with pytest.raises(TypeError):
            open_store(42)
        with pytest.raises(ValueError):
            RemoteStore("ftp://nope")


class TestPickling:
    def test_client_crosses_pickle_without_its_socket(self, server):
        import pickle

        client = RemoteStore(server.url)
        client.put(KEY, PAYLOAD)
        assert client._transport._conn is not None
        clone = pickle.loads(pickle.dumps(client))
        assert clone._transport._conn is None
        assert clone.load(KEY) == PAYLOAD
