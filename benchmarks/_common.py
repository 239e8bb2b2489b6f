"""Shared plumbing for the ``bench_*`` scripts.

Every benchmark writes one JSON artefact at the repo root
(``BENCH_engine.json``, ``BENCH_campaign.json``, …) that the smoke
gate in ``scripts/smoke.py`` reads back as its regression baseline.
The artefacts must stay byte-stable in format — ``indent=2`` plus a
trailing newline — so committed diffs show value drift, never
formatting churn.  This module is the single place that format is
defined.
"""

from __future__ import annotations

import json
import os

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write_artifact(path: str, result: dict) -> None:
    """Write a benchmark artefact in the canonical committed format."""
    with open(path, "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    print(f"bench: wrote {path}")


def append_history(record: dict, output_path: str) -> None:
    """Append a timestamped run record to ``BENCH_history.jsonl``.

    The history file lives next to the written artefact and is
    append-only JSON-lines: one line per benchmark run, stamped with
    UTC wall-clock time, so throughput trends across commits and hosts
    can be plotted without digging through git history.  Unlike the
    artefacts it is never rewritten, only extended.
    """
    import time

    entry = dict(record)
    entry["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    directory = os.path.dirname(os.path.abspath(output_path)) or REPO_ROOT
    path = os.path.join(directory, "BENCH_history.jsonl")
    with open(path, "a") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")

