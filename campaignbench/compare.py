#!/usr/bin/env python3
"""Compare two benchmark passes, one row per (workload, end-to-end metric).

Usage (from the repository root)::

    python3 campaignbench/compare.py BASE.json CANDIDATE.json

Both files are pass files written by a full ``bench.py`` pass (or
``campaignbench/baseline.json``).  Each row shows both sides' median
and quartiles and the candidate's change, then a verdict against the
metric's bound from ``BENCHMARK.json``:

* ``ok``          — the candidate is not worse than the base by more
  than the bound;
* ``REGRESSION``  — it is;
* ``unresolved``  — one side's spread (quartile distance over median)
  is wider than the bound, so the runs cannot tell;
* ``better``      — spread too wide, but every candidate sample beats
  every base sample.

``failed_frac`` gets its own row per workload with a bound of zero:
any rise is a regression.  The table is printed and written under
``campaignbench/out/``; the exit status is 1 when any row regressed.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def _spread(metric: dict) -> float:
    return (metric["q3"] - metric["q1"]) / metric["value"] if metric["value"] else 0.0


def verdict(base: dict, candidate: dict, better: str, bound: float) -> str:
    """The choosing-metrics rule for one (workload, metric) pair."""
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (candidate["value"] - base["value"]) / base["value"]
    if max(_spread(base), _spread(candidate)) > bound:
        if better == "lower":
            beats = max(candidate["samples"]) < min(base["samples"])
        else:
            beats = min(candidate["samples"]) > max(base["samples"])
        return "better" if beats else "unresolved"
    return "REGRESSION" if worse > bound else "ok"


def compare(base: dict, candidate: dict, metrics: List[dict]) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for workload, base_entry in base["workloads"].items():
        candidate_entry: Optional[dict] = candidate["workloads"].get(workload)
        if candidate_entry is None:
            continue
        for spec in metrics:
            a = base_entry["end_to_end"][spec["name"]]
            b = candidate_entry["end_to_end"][spec["name"]]
            rows.append({
                "workload": workload,
                "metric": spec["name"],
                "unit": spec["unit"],
                "base": [a["q1"], a["value"], a["q3"]],
                "candidate": [b["q1"], b["value"], b["q3"]],
                "change_pct": 100.0 * (b["value"] - a["value"]) / a["value"],
                "bound_pct": 100.0 * spec["bound"],
                "verdict": verdict(a, b, spec["better"], spec["bound"]),
            })
        a_failed = base_entry.get("failed_frac", 0.0)
        b_failed = candidate_entry.get("failed_frac", 0.0)
        rows.append({
            "workload": workload,
            "metric": "failed_frac",
            "unit": "fraction",
            "base": [a_failed] * 3,
            "candidate": [b_failed] * 3,
            "change_pct": 100.0 * (b_failed - a_failed),
            "bound_pct": 0.0,
            "verdict": "REGRESSION" if b_failed > a_failed else "ok",
        })
    return rows


def format_rows(rows: List[Dict[str, object]]) -> str:
    lines = [
        f"{'workload':8s} {'metric':26s} {'unit':9s} "
        f"{'base median [q1, q3]':>30s} {'candidate median [q1, q3]':>30s} "
        f"{'change':>8s} {'bound':>6s}  verdict"
    ]
    for row in rows:
        a_q1, a_med, a_q3 = row["base"]
        b_q1, b_med, b_q3 = row["candidate"]
        lines.append(
            f"{row['workload']:8s} {row['metric']:26s} {row['unit']:9s} "
            f"{a_med:11.4g} [{a_q1:.4g}, {a_q3:.4g}]".ljust(76)
            + f"{b_med:11.4g} [{b_q1:.4g}, {b_q3:.4g}]".rjust(30)
            + f" {row['change_pct']:+7.1f}% {row['bound_pct']:5.0f}%  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        metrics = json.load(handle)["end_to_end"]
    with open(argv[0]) as handle:
        base = json.load(handle)
    with open(argv[1]) as handle:
        candidate = json.load(handle)
    rows = compare(base, candidate, metrics)
    table = format_rows(rows)
    print(table)
    os.makedirs(OUT, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    path = os.path.join(OUT, f"compare-{stamp}.txt")
    with open(path, "w") as handle:
        handle.write(f"base: {argv[0]}\ncandidate: {argv[1]}\n{table}\n")
    print(f"compare: wrote {path}")
    return 1 if any(row["verdict"] == "REGRESSION" for row in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main())
