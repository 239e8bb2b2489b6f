"""``python -m repro.store`` maintenance commands."""

import gzip
import json

import pytest

from repro.store import ResultStore
from repro.store.cli import main
from repro.store.format import SCHEMA_VERSION
from tests.store.entries import schema2_entry

KEY = "ab" + "0" * 62
OTHER_KEY = "cd" + "1" * 62
PAYLOAD = {"flow_id": "t/0", "attempts": 1, "failures": [], "result": {}}


@pytest.fixture
def store_dir(tmp_path):
    store = ResultStore(tmp_path / "store")
    store.put(KEY, PAYLOAD)
    return str(store.root)


class TestStats:
    def test_human(self, store_dir, capsys):
        assert main(["stats", store_dir]) == 0
        out = capsys.readouterr().out
        assert "1 entries" in out

    def test_json(self, store_dir, capsys):
        assert main(["stats", store_dir, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["entries"] == 1
        assert data["schema_version"] == SCHEMA_VERSION

    def test_json_counts_schema2_entries_as_stale(self, store_dir, capsys):
        path = ResultStore(store_dir).path_for(OTHER_KEY)
        path.parent.mkdir(parents=True)
        path.write_bytes(schema2_entry(OTHER_KEY))
        assert main(["stats", store_dir, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["schemas"] == {"2": 1, str(SCHEMA_VERSION): 1}
        assert data["stale_entries"] == 1
        assert data["quarantined"] == 0


class TestVerify:
    def test_clean_store_exits_zero(self, store_dir, capsys):
        assert main(["verify", store_dir]) == 0
        assert "0 corrupt" in capsys.readouterr().out

    def test_corrupt_store_exits_one(self, store_dir, capsys):
        store = ResultStore(store_dir)
        store.path_for(KEY).write_bytes(b"garbage")
        assert main(["verify", store_dir]) == 1
        captured = capsys.readouterr()
        assert "1 corrupt" in captured.out
        assert KEY in captured.err
        assert store.path_for(KEY).exists()  # verify alone never moves

    def test_quarantine_flag_moves(self, store_dir):
        store = ResultStore(store_dir)
        store.path_for(KEY).write_bytes(b"garbage")
        assert main(["verify", store_dir, "--quarantine"]) == 1
        assert not store.path_for(KEY).exists()
        assert store.stats().quarantined == 1

    def test_json_reports_corruption(self, store_dir, capsys):
        store = ResultStore(store_dir)
        store.path_for(KEY).write_bytes(b"garbage")
        assert main(["verify", store_dir, "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["checked"] == 1
        assert data["corrupt"] == 1
        assert data["corrupt_keys"] == [KEY]
        assert data["quarantined"] == []  # inspect only, nothing moved
        assert store.path_for(KEY).exists()

    def test_json_with_quarantine_lists_the_moves(self, store_dir, capsys):
        store = ResultStore(store_dir)
        store.path_for(KEY).write_bytes(b"garbage")
        assert main(["verify", store_dir, "--quarantine", "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["quarantined"] == [KEY]
        assert not store.path_for(KEY).exists()

    def test_repair_json_exits_zero(self, store_dir, capsys):
        store = ResultStore(store_dir)
        store.path_for(KEY).write_bytes(b"garbage")
        assert main(["verify", store_dir, "--repair", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {
            "checked": 1, "corrupt": 1, "quarantined": [KEY], "repaired": True,
        }


class TestGc:
    def _stale(self, store_dir):
        store = ResultStore(store_dir)
        path = store.put(OTHER_KEY, PAYLOAD)
        head, body = gzip.decompress(path.read_bytes()).split(b"\n", 1)
        header = json.loads(head)
        header["schema"] = SCHEMA_VERSION - 1
        path.write_bytes(
            gzip.compress(json.dumps(header).encode() + b"\n" + body)
        )
        return store

    def test_gc_removes_stale(self, store_dir, capsys):
        store = self._stale(store_dir)
        assert main(["gc", store_dir]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert store.stats().entries == 1

    def test_dry_run_removes_nothing(self, store_dir, capsys):
        store = self._stale(store_dir)
        assert main(["gc", store_dir, "--dry-run"]) == 0
        assert "would remove 1" in capsys.readouterr().out
        assert store.stats().entries == 2

    def test_json(self, store_dir, capsys):
        self._stale(store_dir)
        assert main(["gc", store_dir, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {
            "dry_run": False, "kept": 1, "removed": 1,
            "schema_version": SCHEMA_VERSION,
        }

    def test_dry_run_json(self, store_dir, capsys):
        store = self._stale(store_dir)
        assert main(["gc", store_dir, "--dry-run", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["dry_run"] is True
        assert data["would_remove"] == 1
        assert store.stats().entries == 2


class TestServe:
    def test_serve_prints_url_and_answers(self, store_dir):
        import http.client
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(os.getcwd(), "src"),
                        env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.store", "serve", store_dir],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            url = proc.stdout.readline().strip()
            assert url.startswith("http://127.0.0.1:")
            host, port = url.removeprefix("http://").split(":")
            conn = http.client.HTTPConnection(host, int(port), timeout=5.0)
            try:
                conn.request("GET", "/stats")
                data = json.loads(conn.getresponse().read())
            finally:
                conn.close()
            assert data["entries"] == 1
        finally:
            proc.terminate()
            proc.wait(timeout=10)


def test_module_entry_point():
    import subprocess
    import sys

    completed = subprocess.run(
        [sys.executable, "-m", "repro.store", "--help"],
        capture_output=True, text=True,
    )
    assert completed.returncode == 0
    assert "stats" in completed.stdout
