"""CLI for the experiment registry.

Usage::

    python -m repro.experiments list
    python -m repro.experiments run fig10 [--scale 1.0] [--seed 2015] [--json]
    python -m repro.experiments run cross_cc --cc all [--workers auto]
    python -m repro.experiments all [--scale 0.5]

Every table and figure of the paper has an id here (``table1``,
``fig1`` … ``fig12``) plus the extension experiments (``delack``,
``eq21_ablation``, ``variants``, ``cross_cc``).  ``--cc`` selects the
congestion control(s) for experiments that sweep the registry
(``cross_cc``): a name, a comma list, or ``all``
(see ``python -m repro.cc list``).

Robustness controls (see README "Robustness & fault injection"):

* ``--timeout-s`` / ``--max-events`` install a per-flow watchdog, so a
  degenerate simulation fails with ``BudgetExceededError`` instead of
  hanging the batch;
* ``--chaos INTENSITY`` installs an aggressive
  :class:`~repro.robustness.faults.FaultPlan` for campaign-based
  experiments — the resilience smoke path;
* ``--deadline-s`` / ``--max-worker-restarts`` configure the campaign
  supervision layer (parent-enforced per-flow wall-clock preemption
  and the worker-crash restart budget; see EXPERIMENTS.md);
* SIGINT/SIGTERM during a campaign drain gracefully: in-flight flows
  finish, completed results flush to the store, the report is marked
  interrupted, no further experiments launch, and the process exits
  with the conventional ``128 + signum``;
* ``all`` isolates experiments: one failure prints a one-line summary,
  the rest keep running, and the exit code is 1 if anything failed.

Observability (see README "Observability"):

* ``--telemetry`` collects per-flow counters in every executor-driven
  campaign/sweep and prints the merged summary (JSON) to stderr at the
  end — result bytes are unchanged;
* ``--progress`` prints flows done/total, flows/s, and ETA lines to
  stderr while campaigns run (implies nothing about results either).

Persistence (see README "Persistence & resumable campaigns"):

* ``--store DIR`` backs every executor-driven campaign with a
  content-addressed result store rooted at DIR — already-simulated
  flows are served from disk and a killed run resumes where it left
  off, with stdout byte-identical to an uncached run;
* ``--no-cache`` (with ``--store``) recomputes everything but still
  refreshes the store's entries.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from typing import List, Optional

from repro.context import run_context
from repro.exec.supervise import SupervisorPolicy, clear_interrupt, interrupt_signal
from repro.experiments.registry import (
    format_result,
    list_experiments,
    run_experiment_safe,
)
from repro.robustness.faults import FaultPlan
from repro.robustness.watchdog import (
    DEFAULT_EVENT_BUDGET,
    DEFAULT_WALL_CLOCK_S,
    Watchdog,
)
from repro.telemetry import CampaignTelemetry

__all__ = ["main"]


def _workers_arg(value: str):
    """Parse ``--workers``: an integer or 'auto'."""
    if value == "auto":
        return value
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"workers must be an integer or 'auto', got {value!r}"
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list experiment ids")
    run_parser = sub.add_parser(
        "run", help="run one experiment (or one scenario via --scenario)"
    )
    run_parser.add_argument(
        "experiment_id", nargs="?", default=None,
        help="experiment id (omit when using --scenario)")
    run_parser.add_argument(
        "--scenario", metavar="NAME|FILE", default=None,
        help="run a flow campaign in this scenario (a bundled scenario "
             "name or a scenario document file; see "
             "`python -m repro.scenarios list`) instead of a registered "
             "experiment")
    _add_scenario_workload(run_parser)
    _add_common(run_parser)
    sweep_parser = sub.add_parser(
        "sweep", help="run a campaign per scenario and compare them"
    )
    sweep_parser.add_argument(
        "scenarios", nargs="*", metavar="NAME|FILE",
        help="scenario names or document files (default with --all: the "
             "whole bundled library)")
    sweep_parser.add_argument(
        "--all", action="store_true",
        help="sweep every bundled scenario")
    _add_scenario_workload(sweep_parser)
    _add_common(sweep_parser)
    all_parser = sub.add_parser("all", help="run every experiment")
    _add_common(all_parser)
    return parser


def _add_scenario_workload(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--flows", type=int, default=4,
        help="flows per scenario campaign (default 4)")
    parser.add_argument(
        "--duration", type=float, default=30.0,
        help="seconds of simulated time per flow (default 30)")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload multiplier (default 1.0)")
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON")
    parser.add_argument(
        "--timeout-s", type=float, default=DEFAULT_WALL_CLOCK_S,
        help=f"per-flow wall-clock watchdog in seconds, 0 disables "
             f"(default {DEFAULT_WALL_CLOCK_S:g})")
    parser.add_argument(
        "--max-events", type=int, default=DEFAULT_EVENT_BUDGET,
        help=f"per-flow simulator event budget, 0 disables "
             f"(default {DEFAULT_EVENT_BUDGET})")
    parser.add_argument(
        "--chaos", type=float, default=0.0, metavar="INTENSITY",
        help="inject an aggressive fault plan at this intensity into "
             "campaign experiments (default 0 = off)")
    parser.add_argument(
        "--deadline-s", type=float, default=0.0, metavar="S",
        help="parent-enforced per-flow wall-clock deadline: a flow "
             "still running S seconds after it was submitted to the "
             "pool has its worker killed, the preemption recorded, and "
             "the flow retried — catches hangs the in-process watchdog "
             "cannot see.  The clock starts at submit, so it includes "
             "worker start-up (ROADMAP item 6): keep S above the spawn "
             "time (default 0 = off)")
    parser.add_argument(
        "--max-worker-restarts", type=int, default=8, metavar="N",
        help="how many times the supervision layer may rebuild a "
             "crashed or preempted worker pool per batch before "
             "quarantining the remainder (default 8)")
    parser.add_argument(
        "--workers", type=_workers_arg, default=1, metavar="N",
        help="fan campaign/sweep flows out over N processes, or 'auto' "
             "to probe the batch and pick serial or pool; results are "
             "byte-identical to a serial run either way (default 1)")
    parser.add_argument(
        "--cc", metavar="NAME[,NAME...]", default=None,
        help="congestion control selection for CC-aware experiments "
             "(cross_cc): a repro.cc registry name, a comma-separated "
             "list, or 'all' for every registered variant; experiments "
             "that don't declare a cc parameter ignore it")
    parser.add_argument(
        "--telemetry", action="store_true",
        help="collect per-flow counters in every campaign and print the "
             "merged summary (JSON) to stderr; result bytes unchanged")
    parser.add_argument(
        "--progress", action="store_true",
        help="print flows done/total, flows/s and ETA to stderr while "
             "campaigns run (presentation only)")
    parser.add_argument(
        "--store", metavar="DIR", default=None,
        help="content-addressed flow-result store: cached flows are "
             "served from DIR without simulating, fresh ones persisted "
             "there; output stays byte-identical (default: no store)")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="with --store: recompute every flow but still refresh its "
             "store entry (repair mode); no-op without --store")


def _watchdog_from(args: argparse.Namespace) -> Optional[Watchdog]:
    max_events = args.max_events if args.max_events > 0 else None
    wall_clock = args.timeout_s if args.timeout_s > 0 else None
    if max_events is None and wall_clock is None:
        return None
    return Watchdog(max_events=max_events, wall_clock_s=wall_clock)


def _run_scenarios(args: argparse.Namespace, refs: List[str]) -> int:
    """Run the scenario campaign/sweep the CLI asked for; 0 on success."""
    # Imported lazily: the experiments CLI should not pay for the
    # scenarios package (or its YAML parse of the library) unless a
    # scenario run was actually requested.
    from repro.experiments.scenario_run import (
        run_scenario_campaign,
        run_scenario_sweep,
    )
    from repro.util.errors import ReproError

    flows = max(1, round(args.flows * args.scale))
    try:
        if len(refs) == 1 and args.command == "run":
            result = run_scenario_campaign(
                refs[0],
                flows=flows,
                duration=args.duration,
                seed=args.seed,
                workers=args.workers,
            )
        else:
            result = run_scenario_sweep(
                refs,
                flows=flows,
                duration=args.duration,
                seed=args.seed,
                workers=args.workers,
            )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(asdict(result), indent=2))
    else:
        print(format_result(result))
        print()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for experiment_id, title in list_experiments().items():
            print(f"{experiment_id:14s} {title}")
        return 0
    ids: List[str] = []
    scenario_refs: Optional[List[str]] = None
    if args.command == "run":
        if args.scenario is not None:
            if args.experiment_id is not None:
                print(
                    "give an experiment id or --scenario, not both",
                    file=sys.stderr,
                )
                return 2
            scenario_refs = [args.scenario]
        elif args.experiment_id is None:
            print(
                "an experiment id (or --scenario NAME|FILE) is required",
                file=sys.stderr,
            )
            return 2
        else:
            ids = [args.experiment_id]
            if args.experiment_id not in list_experiments():
                known = ", ".join(sorted(list_experiments()))
                print(
                    f"unknown experiment {args.experiment_id!r}; known: {known}",
                    file=sys.stderr,
                )
                return 2
    elif args.command == "sweep":
        if args.all:
            from repro.scenarios import scenario_names

            scenario_refs = list(scenario_names()) + list(args.scenarios)
        elif args.scenarios:
            scenario_refs = list(args.scenarios)
        else:
            print(
                "sweep needs scenario names/files or --all", file=sys.stderr
            )
            return 2
    else:
        ids = list(list_experiments())

    clear_interrupt()  # sticky flag; don't inherit an old invocation's drain
    exit_code = 0
    interrupted_by: Optional[int] = None
    with run_context(
        store=args.store,
        refresh=args.no_cache,
        supervisor=SupervisorPolicy(
            deadline_s=args.deadline_s if args.deadline_s > 0 else None,
            max_worker_restarts=args.max_worker_restarts,
        ),
        watchdog=_watchdog_from(args),
        faults=FaultPlan.aggressive(args.chaos) if args.chaos > 0 else None,
        telemetry=CampaignTelemetry() if args.telemetry else None,
        progress=args.progress,
    ) as context:
        if scenario_refs is not None:
            exit_code = _run_scenarios(args, scenario_refs)
            interrupted_by = interrupt_signal()
        for experiment_id in ids:
            result, failure = run_experiment_safe(
                experiment_id,
                scale=args.scale,
                seed=args.seed,
                workers=args.workers,
                cc=args.cc,
            )
            if failure is not None:
                print(failure.summary(), file=sys.stderr)
                exit_code = 1
            elif args.json:
                print(json.dumps(asdict(result), indent=2))
            else:
                print(format_result(result))
                print()
            interrupted_by = interrupt_signal()
            if interrupted_by is not None:
                # A drain happened inside this experiment: whatever
                # completed is flushed (and printed above); launching
                # the next experiment would ignore the operator.
                print(
                    "runner: campaign interrupted — completed flows are "
                    "persisted; rerun the same command to resume",
                    file=sys.stderr,
                )
                break
    aggregate = context.telemetry
    if aggregate is not None:
        if aggregate.flows:
            print(f"telemetry: {aggregate.summary()}", file=sys.stderr)
            print(aggregate.to_json(), file=sys.stderr)
        else:
            print(
                "telemetry: no executor-driven flows ran under this "
                "invocation (nothing to aggregate)",
                file=sys.stderr,
            )
    if interrupted_by is not None:
        return 128 + interrupted_by
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
