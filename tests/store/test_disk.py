"""ResultStore: atomic writes, integrity-checked reads, quarantine, gc."""

import gzip
import json

import pytest

from repro.store import CorruptEntryError, ResultStore
from repro.store.format import COLUMNS, SCHEMA_VERSION
from tests.store.entries import column_payload, schema2_entry, truncate_block

KEY = "ab" + "0" * 62
OTHER_KEY = "cd" + "1" * 62
PAYLOAD = {"flow_id": "t/0", "attempts": 1, "failures": [], "result": {"x": 1.5}}


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


class TestRoundTrip:
    def test_put_load(self, store):
        store.put(KEY, PAYLOAD)
        assert store.load(KEY) == PAYLOAD

    def test_absent_is_none(self, store):
        assert store.load(KEY) is None
        assert store.get(KEY) == (None, False)

    def test_sharded_layout(self, store):
        path = store.put(KEY, PAYLOAD)
        assert path == store.root / KEY[:2] / f"{KEY}.json.gz"
        assert path.exists()

    def test_writes_are_deterministic_bytes(self, store, tmp_path):
        first = store.put(KEY, PAYLOAD).read_bytes()
        second = ResultStore(tmp_path / "other").put(KEY, PAYLOAD).read_bytes()
        assert first == second

    def test_no_tmp_files_left_behind(self, store):
        store.put(KEY, PAYLOAD)
        leftovers = [
            p for p in store.root.rglob("*") if p.is_file() and p.suffix == ".tmp"
        ]
        assert leftovers == []

    def test_overwrite_wins(self, store):
        store.put(KEY, PAYLOAD)
        store.put(KEY, {**PAYLOAD, "attempts": 2})
        assert store.load(KEY)["attempts"] == 2


class TestCorruption:
    def test_truncated_gzip_is_corrupt(self, store):
        path = store.put(KEY, PAYLOAD)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(CorruptEntryError):
            store.load(KEY)

    def test_garbage_bytes_are_corrupt(self, store):
        path = store.put(KEY, PAYLOAD)
        path.write_bytes(b"not a gzip stream")
        with pytest.raises(CorruptEntryError):
            store.load(KEY)

    def test_digest_mismatch_is_corrupt(self, store):
        path = store.put(KEY, PAYLOAD)
        head, body = gzip.decompress(path.read_bytes()).split(b"\n", 1)
        tampered = body.replace(b'"attempts":1', b'"attempts":99')
        assert tampered != body  # tamper without re-digesting
        path.write_bytes(gzip.compress(head + b"\n" + tampered))
        with pytest.raises(CorruptEntryError, match="digest"):
            store.load(KEY)

    def test_missing_header_line_is_corrupt(self, store):
        path = store.put(KEY, PAYLOAD)
        path.write_bytes(gzip.compress(b'{"key": "%s"}' % KEY.encode()))
        with pytest.raises(CorruptEntryError, match="header"):
            store.load(KEY)

    def test_key_filename_mismatch_is_corrupt(self, store):
        path = store.put(KEY, PAYLOAD)
        target = store.path_for(OTHER_KEY)
        target.parent.mkdir(parents=True, exist_ok=True)
        path.rename(target)
        with pytest.raises(CorruptEntryError, match="key"):
            store.load(OTHER_KEY)

    def test_get_quarantines_and_reports(self, store):
        path = store.put(KEY, PAYLOAD)
        path.write_bytes(b"garbage")
        payload, was_corrupt = store.get(KEY)
        assert payload is None and was_corrupt
        assert not path.exists()
        assert (store.root / "quarantine" / path.name).exists()
        # next read of the same key is a clean miss
        assert store.get(KEY) == (None, False)

    def test_verify_reports_without_moving(self, store):
        good_path = store.put(KEY, PAYLOAD)
        bad_path = store.put(OTHER_KEY, PAYLOAD)
        bad_path.write_bytes(b"garbage")
        checked, corrupt = store.verify()
        assert checked == 2
        assert corrupt == [OTHER_KEY]
        assert good_path.exists() and bad_path.exists()


class TestSchemaAndGc:
    def _write_stale(self, store, key):
        path = store.put(key, PAYLOAD)
        head, body = gzip.decompress(path.read_bytes()).split(b"\n", 1)
        header = json.loads(head)
        header["schema"] = SCHEMA_VERSION - 1
        path.write_bytes(
            gzip.compress(json.dumps(header).encode() + b"\n" + body)
        )

    def test_stale_schema_reads_as_miss(self, store):
        self._write_stale(store, KEY)
        assert store.load(KEY) is None
        assert store.get(KEY) == (None, False)

    def test_gc_drops_stale_keeps_current(self, store):
        store.put(KEY, PAYLOAD)
        self._write_stale(store, OTHER_KEY)
        kept, removed = store.gc()
        assert (kept, removed) == (1, 1)
        assert store.load(KEY) == PAYLOAD
        assert not store.path_for(OTHER_KEY).exists()

    def test_gc_drops_unreadable(self, store):
        path = store.put(KEY, PAYLOAD)
        path.write_bytes(b"garbage")
        kept, removed = store.gc()
        assert (kept, removed) == (0, 1)

    def test_stats(self, store):
        store.put(KEY, PAYLOAD)
        self._write_stale(store, OTHER_KEY)
        bad = store.put("ef" + "2" * 62, PAYLOAD)
        bad.write_bytes(b"garbage")
        store.get("ef" + "2" * 62)  # quarantine it
        stats = store.stats()
        assert stats.entries == 2
        assert stats.stale_entries == 1
        assert stats.quarantined == 1
        assert stats.total_bytes > 0
        assert stats.to_dict()["schema_version"] == SCHEMA_VERSION
        assert "2 entries" in stats.summary()


class TestColumnEntries:
    def test_column_payload_round_trips(self, store):
        payload = column_payload()
        store.put(KEY, payload)
        assert store.load(KEY) == payload

    def test_block_follows_the_json_line_verbatim(self, store):
        payload = column_payload()
        path = store.put(KEY, payload)
        _, body = gzip.decompress(path.read_bytes()).split(b"\n", 1)
        line, block = body.split(b"\n", 1)
        assert block == payload[COLUMNS]
        assert b'"columns":' not in line

    def test_schema2_entry_is_a_stale_miss(self, store):
        path = store.path_for(KEY)
        path.parent.mkdir(parents=True)
        path.write_bytes(schema2_entry(KEY))
        assert store.get(KEY) == (None, False)  # not corrupt
        assert path.exists()  # not quarantined
        assert store.stats().stale_entries == 1
        assert store.stats().quarantined == 0
        assert store.gc() == (0, 1)
        assert not path.exists()

    def test_truncated_block_under_recomputed_digest_is_corrupt(self, store):
        path = store.put(KEY, column_payload())
        path.write_bytes(truncate_block(path.read_bytes()))
        with pytest.raises(CorruptEntryError, match="column block"):
            store.load(KEY)
        assert store.get(KEY) == (None, True)
        assert (store.root / "quarantine" / path.name).exists()

    def test_block_without_counts_is_corrupt(self, store):
        path = store.put(KEY, {**PAYLOAD, COLUMNS: b"\x00" * 17})
        with pytest.raises(CorruptEntryError, match="counts"):
            store.load(KEY)
        assert path.exists()
