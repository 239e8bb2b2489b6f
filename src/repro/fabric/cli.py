"""The fabric CLI: serve a campaign, work a campaign, or do both.

Usage::

    # Terminal 1 — coordinator only; waits for workers to attach:
    python -m repro.fabric serve [--scale 0.1] [--duration 8] [--seed N]
        [--cc reno] [--store DIR|http://host:port]
        [--host H] [--port P] [--shard-size N]
        [--lease-timeout-s S] [--steal-age-s S]

    # Terminal 2..N — attach any number of workers, any time:
    python -m repro.fabric work --coordinator http://host:port
        [--worker-id NAME] [--poll-s S]

    # Or one command, coordinator + N local workers:
    python -m repro.fabric run [--workers 2] [...same campaign flags]

``serve`` and ``run`` drive the paper's Table-I campaign
(:func:`~repro.traces.generator.generate_dataset`) and print the final
:class:`~repro.robustness.campaign.CampaignReport` JSON on stdout —
byte-identical to ``generate_dataset(workers=1)`` of the same
parameters, which is the fabric's core contract and what the CI gate
diffs.  ``--store`` belongs to the driver: it alone reads and writes
results, so a worker needs nothing but the coordinator URL.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

__all__ = ["main"]


def _add_campaign_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=0.1,
                        help="Table-I flow_scale (default 0.1)")
    parser.add_argument("--duration", type=float, default=8.0,
                        help="per-flow simulated seconds (default 8)")
    parser.add_argument("--seed", type=int, default=2015,
                        help="campaign base seed (default 2015)")
    parser.add_argument("--cc", default="reno",
                        help="congestion control variant (default reno)")
    parser.add_argument("--store", default=None,
                        help="result store the driver reads and writes: a "
                             "directory or an http:// store-server URL "
                             "(workers never touch it)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="coordinator bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=0,
                        help="coordinator bind port (default 0 = ephemeral)")
    parser.add_argument("--shard-size", type=int, default=4,
                        help="payloads per lease shard (default 4)")
    parser.add_argument("--lease-timeout-s", type=float, default=30.0,
                        help="seconds before an unfinished lease expires "
                             "back to pending (default 30)")
    parser.add_argument("--steal-age-s", type=float, default=None,
                        help="age at which idle workers may steal an "
                             "active lease (default: timeout expiry only)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fabric",
        description="Distributed campaign fabric: coordinator and workers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser(
        "serve",
        help="run a Table-I campaign coordinator; workers attach separately",
    )
    _add_campaign_arguments(serve)

    work = sub.add_parser("work", help="attach one worker to a coordinator")
    work.add_argument("--coordinator", required=True,
                      help="coordinator URL (printed by serve/run)")
    work.add_argument("--worker-id", default=None,
                      help="stable worker name (default host-pid)")
    work.add_argument("--poll-s", type=float, default=0.2,
                      help="idle poll interval in seconds (default 0.2)")

    run = sub.add_parser(
        "run", help="run a Table-I campaign with local fabric workers"
    )
    _add_campaign_arguments(run)
    run.add_argument("--workers", type=int, default=2,
                     help="local worker processes to spawn (default 2)")

    return parser


def _run_campaign(args: argparse.Namespace, workers: int) -> int:
    from repro.fabric.backend import FabricConfig, fabric_scope
    from repro.traces.generator import generate_dataset

    config = FabricConfig(
        workers=workers,
        host=args.host,
        port=args.port,
        shard_size=args.shard_size,
        lease_timeout_s=args.lease_timeout_s,
        steal_age_s=args.steal_age_s,
        announce=True,
    )
    with fabric_scope(config):
        dataset = generate_dataset(
            seed=args.seed,
            duration=args.duration,
            flow_scale=args.scale,
            workers="fabric",
            store=args.store,
            cc=args.cc,
        )
    report = dataset.report
    print(report.to_json())
    print(f"fabric: campaign complete — {report.summary()}", file=sys.stderr)
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "work":
        from repro.fabric.worker import FabricWorker

        worker = FabricWorker(
            args.coordinator,
            worker_id=args.worker_id,
            poll_s=args.poll_s,
        )
        return worker.run()

    if args.command == "serve":
        return _run_campaign(args, workers=0)

    # run
    return _run_campaign(args, workers=args.workers)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
