"""Command-line interface: ``repro-seu``.

Subcommands
-----------
``experiment <id>``
    Run one paper artifact (fig3, table2, fig9, table3, fig10, fig11)
    and print its table + shape checks.
``optimize``
    Run the proposed soft error-aware optimization on the MPEG-2
    decoder or a random graph and print the chosen design.
``inject``
    Simulate a design and run a Monte-Carlo SEU injection campaign,
    comparing the measured count against the Eq. (3) expectation.
``runs``
    List the run-store manifests under a store directory: per-run
    status, cell completion counts, profile and fingerprint — the
    operational view of streamed/resumable experiment runs.
``serve``
    Run the HTTP job service: clients submit experiment or task-graph
    runs, poll progress, and fetch byte-identical reports; identical
    submissions are served from the store's result cache.

Every subcommand goes through :mod:`repro.api` — the one sanctioned
programmatic surface; the CLI adds argument parsing and printing only.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import List, Optional

from repro.experiments.common import EXEC_PLANS, ExperimentProfile
from repro.experiments.runner import experiment_ids


def _add_profile_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.arch.platform import platform_names

    parser.add_argument(
        "--platform",
        choices=list(platform_names()),
        default=None,
        help=(
            "platform preset; 'arm7' (the default) is the paper's "
            "homogeneous platform, 'biglittle' alternates big/little "
            "core types (result-determining: part of the store "
            "fingerprint)"
        ),
    )
    parser.add_argument(
        "--tech-node",
        default=None,
        metavar="NODE",
        help=(
            "technology node spec like 45nm, 22nm or 16nm-cons "
            "(default: 45nm, the paper's reference node; "
            "result-determining: part of the store fingerprint)"
        ),
    )
    parser.add_argument(
        "--profile",
        choices=["smoke", "fast", "full"],
        default="fast",
        help=(
            "search budget preset: smoke (pipeline e2e tests), fast (CI) "
            "or full (paper scale) (default: fast)"
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="determinism seed")
    parser.add_argument(
        "--exec-plan",
        choices=list(EXEC_PLANS),
        default=None,
        help=(
            "execution plan: 'dag' (or dag:serial/dag:thread/dag:process/"
            "dag:auto to pin the transport) runs cells, annealing restarts "
            "and scaling sweeps on ONE shared work-stealing pool so idle "
            "workers steal inner work from any cell; 'percut' is an alias "
            "of the serial default; reports are byte-identical either way "
            "(default: serial)"
        ),
    )
    parser.add_argument(
        "--restarts",
        type=int,
        default=None,
        help=(
            "annealing restart count per scaling (default: the mappers' "
            "size-derived choice)"
        ),
    )
    parser.add_argument(
        "--max-workers",
        type=int,
        default=None,
        help=(
            "worker cap of the --exec-plan dag pool "
            "(default: the machine's CPU count)"
        ),
    )
    parser.add_argument(
        "--batch-eval",
        type=int,
        default=0,
        help=(
            "batched candidate screening chunk size for the mapping "
            "searchers (vectorized evaluate_batch); 1 is bit-identical "
            "to the serial walk, 0 disables (default: 0)"
        ),
    )
    parser.add_argument(
        "--screen-moves",
        choices=["off", "on", "auto"],
        default="off",
        help=(
            "incremental move screening in the searchers; 'auto' screens "
            "only on graphs with >= 100 tasks, where the preview cost "
            "pays for itself (default: off)"
        ),
    )
    parser.add_argument(
        "--store-dir",
        default=None,
        help=(
            "stream every experiment grid to this directory as cells "
            "complete (append-only records + manifest per run; crash-"
            "resilient; inspect with `repro-seu runs`)"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "with --store-dir: skip cells already completed in the store "
            "(same profile required) and re-dispatch only missing/failed "
            "ones; the resumed report is byte-identical to an "
            "uninterrupted run"
        ),
    )


def _profile_from(args: argparse.Namespace) -> ExperimentProfile:
    if args.profile == "full":
        profile = ExperimentProfile.full(seed=args.seed)
    elif args.profile == "smoke":
        profile = ExperimentProfile.smoke(seed=args.seed)
    else:
        profile = ExperimentProfile.fast(seed=args.seed)
    platform = getattr(args, "platform", None)
    tech_node = getattr(args, "tech_node", None)
    exec_plan = getattr(args, "exec_plan", None)
    restarts = getattr(args, "restarts", None)
    max_workers = getattr(args, "max_workers", None)
    # Each profile copy re-validates (unknown presets/nodes, worker caps
    # and restart counts below 1): usage errors, not tracebacks from
    # deep inside a run.
    try:
        if platform is not None or tech_node is not None:
            profile = profile.with_platform(platform=platform, tech_node=tech_node)
        if exec_plan is not None:
            profile = profile.with_exec_plan(exec_plan)
        if restarts is not None:
            profile = replace(profile, sa_restarts=restarts)
        if max_workers is not None:
            profile = profile.with_max_workers(max_workers)
    except ValueError as exc:
        raise SystemExit(f"repro-seu: error: {exc}")
    batch_eval = getattr(args, "batch_eval", 0)
    screen_moves = getattr(args, "screen_moves", "off")
    if batch_eval < 0:
        raise SystemExit(
            "repro-seu: error: --batch-eval must be non-negative"
        )
    if batch_eval and screen_moves != "off":
        # Fail fast and unconditionally: with "auto" the conflict
        # would otherwise only surface on the first >=100-task graph,
        # aborting a mixed-size sweep partway through.
        raise SystemExit(
            "repro-seu: error: --batch-eval and --screen-moves are "
            "mutually exclusive"
        )
    if batch_eval:
        profile = replace(profile, batch_eval=batch_eval)
    if screen_moves != "off":
        profile = replace(
            profile, screen_moves=True if screen_moves == "on" else "auto"
        )
    store_dir = getattr(args, "store_dir", None)
    resume = getattr(args, "resume", False)
    if resume and store_dir is None:
        raise SystemExit("repro-seu: error: --resume requires --store-dir")
    if store_dir is not None:
        profile = profile.with_store(store_dir, resume=resume)
    return profile


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro import api

    profile = _profile_from(args)
    # The facade owns the executor scope for the whole run; stats go to
    # stderr — stdout stays exactly the report, which CI diffs.
    outcome = api.execute_run(args.id, profile, source=args.id)
    print(outcome.report)
    stats = outcome.executor_stats
    if stats is not None:
        print(f"[executor] {stats.summary()}", file=sys.stderr)
        for worker, count in sorted(stats.per_worker.items()):
            print(f"[executor]   {worker}: {count} task(s)", file=sys.stderr)
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    from repro import quick_optimize
    from repro.taskgraph.mpeg2 import MPEG2_DEADLINE_S, mpeg2_decoder
    from repro.taskgraph.random_graphs import RandomGraphConfig, random_task_graph
    from repro.taskgraph.workloads import WORKLOADS

    if args.app == "mpeg2":
        graph, deadline = mpeg2_decoder(), MPEG2_DEADLINE_S
    elif args.app in WORKLOADS:
        factory, deadline = WORKLOADS[args.app]
        graph = factory()
    else:
        config = RandomGraphConfig(num_tasks=args.tasks)
        graph = random_task_graph(config, seed=args.seed)
        deadline = config.deadline_s
    outcome = quick_optimize(
        graph,
        num_cores=args.cores,
        deadline_s=deadline,
        num_scaling_levels=args.levels,
        search_iterations=args.iterations,
        seed=args.seed,
    )
    if outcome.best is None:
        print("no feasible design found", file=sys.stderr)
        return 1
    best = outcome.best
    print(f"application: {graph.name} ({graph.num_tasks} tasks)")
    print(f"deadline:    {deadline * 1e3:.1f} ms")
    print(f"design:      {best.summary()}")
    for core, tasks in enumerate(best.mapping.core_groups()):
        level = best.scaling[core]
        print(f"  core {core + 1} (s={level}): {', '.join(tasks) if tasks else '-'}")
    print(f"assessed {len(outcome.assessments)} scaling combinations, "
          f"{outcome.evaluations} design-point evaluations")
    return 0


def _cmd_inject(args: argparse.Namespace) -> int:
    from repro.arch import MPSoC
    from repro.faults import FaultInjector
    from repro.mapping import Mapping
    from repro.sim import MPSoCSimulator
    from repro.taskgraph.mpeg2 import mpeg2_decoder

    graph = mpeg2_decoder()
    platform = MPSoC.paper_reference(args.cores)
    scaling = tuple(int(s) for s in args.scaling.split(",")) if args.scaling else None
    simulator = MPSoCSimulator(graph, platform, scaling=scaling)
    mapping = Mapping.round_robin(graph, args.cores)
    result = simulator.run(mapping)
    voltages = [
        table.vdd_v(coefficient)
        for table, coefficient in zip(platform.core_tables, simulator.scaling)
    ]
    injector = FaultInjector(seed=args.seed)
    campaign = injector.inject(result, voltages, runs=args.runs)
    print(f"makespan:        {result.makespan_s * 1e3:.1f} ms")
    print(f"expected SEUs:   {campaign.expected_seus / args.runs:.2f} per run")
    print(f"injected SEUs:   {campaign.mean_seus_per_run:.2f} per run "
          f"({args.runs} runs)")
    for core, count in campaign.per_core_seus.items():
        print(f"  core {core + 1}: {count} SEUs total")
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro import api
    from repro.store import StoreIndexError

    root = Path(args.store_dir)
    if not root.exists():
        print(f"no such store directory: {root}", file=sys.stderr)
        return 1
    if args.compact:
        from repro.store import compact_store

        results = compact_store(root)
        changed = [result for result in results if result.changed]
        dropped = sum(result.dropped for result in changed)
        print(
            f"compacted {len(changed)}/{len(results)} records file(s), "
            f"dropped {dropped} superseded line(s)",
            file=sys.stderr,
        )
    try:
        if args.rebuild_index:
            count = api.rebuild_index(root)
            print(f"rebuilt index: {count} run(s)", file=sys.stderr)
        statuses = api.list_runs(root, tenant=args.tenant)
    except StoreIndexError as exc:
        print(f"cannot list {root}: {exc}", file=sys.stderr)
        return 1
    if args.run is not None:
        statuses = [
            status
            for status in statuses
            if status.label == args.run or status.run_id == args.run
        ]
        if not statuses:
            print(f"no run {args.run!r} under {root}", file=sys.stderr)
            return 1
    if args.json:
        document = [status.to_dict() for status in statuses]
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    if not statuses:
        print(f"no run manifests under {root}")
        return 0
    print(api.format_runs_table(statuses))
    if args.run is not None:
        from repro.exec.dag import ExecutorStats

        status = statuses[0]
        if status.executor:
            print()
            print(
                f"executor: {ExecutorStats.from_dict(status.executor).summary()}"
            )
            per_worker = status.executor.get("per_worker", {})
            for worker, count in sorted(per_worker.items()):
                print(f"  {worker}: {count} task(s)")
        if args.cells:
            print()
            for key in status.cells:
                print(f"  [{status.cell_status.get(key, '?'):>7}] {key}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.http import serve

    return serve(
        args.store_dir,
        host=args.host,
        port=args.port,
        max_concurrency=args.max_concurrency,
        queue_size=args.queue_size,
        transport=args.transport,
        default_exec_plan=args.exec_plan,
        resume_orphans=args.resume_orphans,
        retry_after_s=args.retry_after,
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-seu`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-seu",
        description="Soft error-aware MPSoC design optimization (DATE 2010 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    experiment = subparsers.add_parser(
        "experiment", help="run one paper table/figure"
    )
    experiment.add_argument("id", choices=list(experiment_ids()))
    _add_profile_arguments(experiment)
    experiment.set_defaults(func=_cmd_experiment)

    optimize = subparsers.add_parser("optimize", help="optimize one application")
    optimize.add_argument(
        "--app",
        choices=["mpeg2", "random", "jpeg", "fft8", "cruise-control"],
        default="mpeg2",
    )
    optimize.add_argument("--tasks", type=int, default=20, help="random graph size")
    optimize.add_argument("--cores", type=int, default=4)
    optimize.add_argument("--levels", type=int, default=3, choices=[2, 3, 4])
    optimize.add_argument("--iterations", type=int, default=800)
    optimize.add_argument("--seed", type=int, default=0)
    optimize.set_defaults(func=_cmd_optimize)

    inject = subparsers.add_parser("inject", help="Monte-Carlo SEU injection demo")
    inject.add_argument("--cores", type=int, default=4)
    inject.add_argument("--scaling", type=str, default="",
                        help="comma-separated per-core coefficients, e.g. 2,2,3,2")
    inject.add_argument("--runs", type=int, default=20)
    inject.add_argument("--seed", type=int, default=0)
    inject.set_defaults(func=_cmd_inject)

    runs = subparsers.add_parser(
        "runs", help="list run-store manifests (status, completion, fingerprint)"
    )
    runs.add_argument(
        "--store-dir",
        required=True,
        help="store directory previous runs streamed into",
    )
    runs.add_argument(
        "--run",
        default=None,
        help="show only this run label (e.g. table3, all)",
    )
    runs.add_argument(
        "--cells",
        action="store_true",
        help="with --run: also print per-cell statuses in grid order",
    )
    runs.add_argument(
        "--json",
        action="store_true",
        help="emit the run statuses as JSON (the service's status shape)",
    )
    runs.add_argument(
        "--tenant",
        default=None,
        help="only runs carrying this tenant label (service stores)",
    )
    runs.add_argument(
        "--rebuild-index",
        action="store_true",
        help=(
            "rebuild the SQLite index from records + manifests before "
            "listing (safe any time: records are the only authority)"
        ),
    )
    runs.add_argument(
        "--compact",
        action="store_true",
        help=(
            "rewrite torn/duplicate records.jsonl tails before listing "
            "(only run against quiescent stores)"
        ),
    )
    runs.set_defaults(func=_cmd_runs)

    serve = subparsers.add_parser(
        "serve",
        help="run the HTTP job service (submit/poll/fetch, cached dedup)",
    )
    serve.add_argument(
        "--store-dir",
        required=True,
        help="service store root; runs live under <store-dir>/runs/<id>",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8321, help="bind port (0 = ephemeral)"
    )
    serve.add_argument(
        "--max-concurrency",
        type=int,
        default=2,
        help="runs executing at once; beyond this, submissions queue",
    )
    serve.add_argument(
        "--queue-size",
        type=int,
        default=64,
        help="queued-run backstop; a full queue refuses with HTTP 503",
    )
    serve.add_argument(
        "--transport",
        choices=["serial", "thread", "process", "auto"],
        default="thread",
        help="the shared executor's transport (default: thread)",
    )
    serve.add_argument(
        "--exec-plan",
        choices=list(EXEC_PLANS),
        default="dag",
        help=(
            "execution plan applied to submissions that do not pin one; "
            "an execution knob only — never part of run identity "
            "(default: dag)"
        ),
    )
    serve.add_argument(
        "--no-resume-orphans",
        dest="resume_orphans",
        action="store_false",
        default=True,
        help=(
            "do not re-attach queued/running runs a dead server left "
            "behind (default: adopt and finish them via store resume)"
        ),
    )
    serve.add_argument(
        "--retry-after",
        type=float,
        default=1.0,
        help=(
            "backoff hint (seconds) sent with 503 queue-full responses "
            "as the Retry-After header (default: 1.0)"
        ),
    )
    serve.set_defaults(func=_cmd_serve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
