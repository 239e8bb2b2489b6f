"""Maintenance CLI for result stores.

Usage::

    python -m repro.store stats  DIR [--json]
    python -m repro.store verify DIR [--quarantine | --repair] [--json]
    python -m repro.store gc     DIR [--dry-run] [--json]
    python -m repro.store serve  DIR [--host H] [--port P]

``stats`` summarises entry/byte/schema counts; ``verify`` re-hashes
every entry against its integrity digest (exit 1 when anything is
corrupt; ``--quarantine`` also moves offenders aside, and ``--repair``
does the same in one store pass *and exits 0* — corruption handled is
not an error — so operators can pre-clean a store before a large
campaign); ``gc`` drops entries written under a stale payload schema
(and unreadable ones), reclaiming space that can never hit again.
Every maintenance subcommand takes ``--json`` for machine-readable
output, so scripts and CI can parse store state without
scraping text.

``serve`` exposes the directory over HTTP
(:class:`~repro.store.remote.StoreServer`) so remote campaign workers
can share it via ``--store http://host:port``; it prints the bound URL
on stdout and serves until interrupted.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.store.disk import ResultStore
from repro.store.format import SCHEMA_VERSION

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-store",
        description="Inspect, maintain, and serve a content-addressed flow-result store",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    stats = sub.add_parser("stats", help="summarise a store directory")
    stats.add_argument("store_dir")
    stats.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON")

    verify = sub.add_parser("verify", help="re-hash every entry")
    verify.add_argument("store_dir")
    verify.add_argument("--quarantine", action="store_true",
                        help="move corrupt entries into <store>/quarantine/")
    verify.add_argument(
        "--repair", action="store_true",
        help="quarantine all corrupt entries in one pass and exit 0 "
             "(pre-clean a store before a campaign)",
    )
    verify.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON")

    gc = sub.add_parser("gc", help="drop stale-schema and unreadable entries")
    gc.add_argument("store_dir")
    gc.add_argument("--dry-run", action="store_true",
                    help="report what would be removed without removing it")
    gc.add_argument("--json", action="store_true",
                    help="emit machine-readable JSON")

    serve = sub.add_parser(
        "serve", help="expose the store over HTTP for remote campaign workers"
    )
    serve.add_argument("store_dir")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0,
                       help="bind port (default 0 = ephemeral; the bound "
                            "URL is printed on stdout)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "serve":
        from repro.store.remote import StoreServer

        server = StoreServer(args.store_dir, host=args.host, port=args.port)
        print(server.url, flush=True)
        try:
            server.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive stop
            pass
        return 0

    store = ResultStore(args.store_dir)

    if args.command == "stats":
        stats = store.stats()
        if args.json:
            print(json.dumps(stats.to_dict(), indent=2, sort_keys=True))
        else:
            print(f"store: {stats.summary()}")
        return 0

    if args.command == "verify":
        if args.repair:
            checked, repaired = store.repair()
            if args.json:
                print(json.dumps(
                    {"checked": checked, "corrupt": len(repaired),
                     "quarantined": sorted(repaired), "repaired": True},
                    indent=2, sort_keys=True,
                ))
            else:
                print(
                    f"store: verified {checked} entries, "
                    f"quarantined {len(repaired)} corrupt"
                )
                for key in repaired:
                    print(f"  quarantined {key}", file=sys.stderr)
            return 0
        checked, corrupt = store.verify()
        if args.quarantine:
            for key in corrupt:
                store.quarantine(key)
        if args.json:
            print(json.dumps(
                {"checked": checked, "corrupt": len(corrupt),
                 "corrupt_keys": sorted(corrupt),
                 "quarantined": sorted(corrupt) if args.quarantine else []},
                indent=2, sort_keys=True,
            ))
        else:
            print(f"store: verified {checked} entries, {len(corrupt)} corrupt")
            for key in corrupt:
                print(f"  corrupt {key}", file=sys.stderr)
            if corrupt and args.quarantine:
                print(f"store: quarantined {len(corrupt)} entries")
        return 1 if corrupt else 0

    # gc
    if args.dry_run:
        stats = store.stats()
        if args.json:
            print(json.dumps(
                {"dry_run": True, "entries": stats.entries,
                 "would_remove": stats.stale_entries,
                 "schema_version": SCHEMA_VERSION},
                indent=2, sort_keys=True,
            ))
        else:
            print(
                f"store: gc --dry-run — would remove {stats.stale_entries} of "
                f"{stats.entries} entries (current schema {SCHEMA_VERSION})"
            )
        return 0
    kept, removed = store.gc()
    if args.json:
        print(json.dumps(
            {"dry_run": False, "kept": kept, "removed": removed,
             "schema_version": SCHEMA_VERSION},
            indent=2, sort_keys=True,
        ))
    else:
        print(
            f"store: gc removed {removed} stale entries, kept {kept} "
            f"(schema {SCHEMA_VERSION})"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
