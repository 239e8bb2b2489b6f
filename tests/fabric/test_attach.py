"""Multi-host attach mode, driven end to end over real processes.

``python -m repro.fabric serve`` runs a coordinator with no local
workers, and ``python -m repro.fabric work --coordinator URL`` attaches
a worker from anywhere.  This is the topology a campaign spread over
several hosts uses; here both processes share the loopback.  The
served report must match a serial ``generate_dataset`` byte for byte,
and the store must be filled by the driver alone — the campaign a
worker joins names no store.
"""

import os
import socket
import subprocess
import sys
import time
from pathlib import Path

from repro.store import ResultStore
from repro.store.remote import _Transport
from repro.traces.generator import generate_dataset

SRC = str(Path(__file__).resolve().parents[2] / "src")
SCALE = 0.02
DURATION = 2.0


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _environment():
    env = dict(os.environ)
    path = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = f"{SRC}{os.pathsep}{path}" if path else SRC
    return env


def _campaign_when_up(url: str, serve: subprocess.Popen, timeout_s: float = 60.0):
    """Poll ``GET /campaign`` until the coordinator answers."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        assert serve.poll() is None, "serve exited before coordinating"
        try:
            return _Transport(url).request_json("GET", "/campaign")
        except OSError:
            time.sleep(0.1)
    raise AssertionError(f"coordinator at {url} never came up")


def test_served_campaign_with_one_attached_worker(tmp_path):
    store_dir = tmp_path / "store"
    port = _free_port()
    url = f"http://127.0.0.1:{port}"
    env = _environment()
    serve = subprocess.Popen(
        [sys.executable, "-m", "repro.fabric", "serve", "--port", str(port),
         "--store", str(store_dir), "--scale", str(SCALE),
         "--duration", str(DURATION)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    worker = None
    try:
        campaign = _campaign_when_up(url, serve)
        assert "store" not in campaign  # workers are never told of one
        worker = subprocess.Popen(
            [sys.executable, "-m", "repro.fabric", "work",
             "--coordinator", url, "--poll-s", "0.05"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        stdout, stderr = serve.communicate(timeout=300)
        _, worker_stderr = worker.communicate(timeout=60)
    finally:
        for proc in (serve, worker):
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait()
    assert serve.returncode == 0, stderr.decode()
    assert worker.returncode == 0, worker_stderr.decode()

    serial = generate_dataset(
        seed=2015, duration=DURATION, flow_scale=SCALE, workers=1
    )
    assert stdout == (serial.report.to_json() + "\n").encode()
    assert ResultStore(store_dir).stats().entries == serial.flow_count
