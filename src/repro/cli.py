"""Command-line interface: regenerate any reproduced table or figure.

Examples
--------
::

    lpfps table2
    lpfps figure7
    lpfps figure8 --app ins --seeds 1 2 3
    lpfps ablation --which mechanisms --app ins
    lpfps simulate --app cnc --scheduler lpfps --bcet-ratio 0.5
    lpfps profile lpfps example_dac99
    lpfps serve --port 8080 --cache-dir /tmp/lpfps-cache
    lpfps query --kind energy --app ins --scheduler lpfps --bcet-ratio 0.5
    lpfps schedulers --json
    lpfps scenario run weakly_hard --jobs 0
    python -m repro figure1
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .faults.guards import DEFAULT_POLICIES, MISS_POLICIES
from .faults.injectors import available_injectors
from .schedulers.registry import available_schedulers
from .workloads.registry import available_workloads


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests/docs)."""
    parser = argparse.ArgumentParser(
        prog="lpfps",
        description=(
            "Reproduction of 'Power Conscious Fixed Priority Scheduling for "
            "Hard Real-Time Systems' (Shin & Choi, DAC 1999)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("figure1", help="BCET/WCET motivation figure")
    sub.add_parser("table1", help="Table 1 / Figure 2 schedule replay")
    sub.add_parser("table2", help="workload summary table")
    sub.add_parser("figure7", help="optimal vs heuristic speed ratio")

    f8 = sub.add_parser("figure8", help="LPFPS vs FPS power sweep")
    f8.add_argument(
        "--app",
        choices=available_workloads() + ["all"],
        default="all",
        help="application panel to run (default: all four)",
    )
    f8.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    f8.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the run grid; 0 = one per CPU "
        "(results identical to serial)",
    )
    f8.add_argument(
        "--checkpoint", metavar="DIR", default=None,
        help="journal completed cells into DIR; rerunning with the same "
        "DIR resumes after a crash instead of starting over",
    )
    f8.add_argument(
        "--resume", metavar="DIR", dest="checkpoint",
        help="alias for --checkpoint: resume from DIR's journal",
    )

    ab = sub.add_parser("ablation", help="design-choice ablation studies")
    ab.add_argument(
        "--which",
        choices=["policy", "mechanisms", "freqgrid", "rho", "all"],
        default="all",
    )
    ab.add_argument("--app", choices=available_workloads(), default=None)
    ab.add_argument("--bcet-ratio", type=float, default=0.5)

    ext = sub.add_parser(
        "extensions", help="extension studies: overhead / oracle / predictive"
    )
    ext.add_argument(
        "--which",
        choices=["overhead", "oracle", "predictive", "weaklyhard", "all"],
        default="all",
    )

    flt = sub.add_parser(
        "faults", help="seeded fault-injection campaign over the policy field"
    )
    flt.add_argument(
        "--workload", choices=available_workloads(), required=True,
        help="application task set the faults are injected into",
    )
    flt.add_argument(
        "--injector", choices=available_injectors(), default="wcet-overrun"
    )
    flt.add_argument(
        "--intensity", type=float, default=0.2,
        help="fault dose knob in [0, 1]; 0 runs a control campaign",
    )
    flt.add_argument(
        "--seed", type=int, nargs="+", default=[1, 2, 3],
        help="execution + fault-layer seeds (one run per seed)",
    )
    flt.add_argument(
        "--miss-policy", choices=MISS_POLICIES, default="run-to-completion",
        help="guarded cells' deadline-miss containment",
    )
    flt.add_argument("--bcet-ratio", type=float, default=0.5)
    flt.add_argument(
        "--policies", nargs="+", choices=available_schedulers(),
        default=list(DEFAULT_POLICIES),
    )
    flt.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the run grid; 0 = one per CPU "
        "(results identical to serial)",
    )
    flt.add_argument(
        "--checkpoint", metavar="DIR", default=None,
        help="journal completed cells into DIR; rerunning with the same "
        "DIR resumes after a crash instead of starting over",
    )
    flt.add_argument(
        "--resume", metavar="DIR", dest="checkpoint",
        help="alias for --checkpoint: resume from DIR's journal",
    )

    val = sub.add_parser(
        "validate", help="run one traced simulation and check kernel invariants"
    )
    val.add_argument("--app", choices=available_workloads(), required=True)
    val.add_argument("--scheduler", choices=available_schedulers(), default="lpfps")
    val.add_argument("--bcet-ratio", type=float, default=0.5)
    val.add_argument("--duration", type=float, default=None)
    val.add_argument("--seed", type=int, default=1)

    simp = sub.add_parser("simulate", help="one simulation run, summarised")
    simp.add_argument("--app", choices=available_workloads(), required=True)
    simp.add_argument(
        "--scheduler", choices=available_schedulers(), default="lpfps"
    )
    simp.add_argument("--bcet-ratio", type=float, default=1.0)
    simp.add_argument("--seed", type=int, default=1)
    simp.add_argument("--duration", type=float, default=None, help="horizon in us")

    prof = sub.add_parser(
        "profile",
        help="per-phase time/energy breakdown of one simulation run",
    )
    # Positional, and deliberately without choices=: the workload
    # registry accepts aliases (e.g. example_dac99) that the canonical
    # listing hides.
    prof.add_argument("scheduler", choices=available_schedulers())
    prof.add_argument("workload", help="workload name or alias")
    prof.add_argument("--bcet-ratio", type=float, default=0.5)
    prof.add_argument("--seed", type=int, default=1)
    prof.add_argument("--duration", type=float, default=None, help="horizon in us")
    prof.add_argument(
        "--out-dir", default="benchmarks/out",
        help="where the profile_*.json payload is written",
    )

    srv = sub.add_parser(
        "serve", help="serve scheduling/energy queries over HTTP"
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument(
        "--port", type=int, default=8080,
        help="TCP port; 0 binds a free one (printed on startup)",
    )
    srv.add_argument(
        "--cache-dir", default=None,
        help="directory for the on-disk result-cache tier (default: memory only)",
    )
    srv.add_argument(
        "--memory-items", type=int, default=1024,
        help="capacity of the in-memory LRU cache tier",
    )
    srv.add_argument(
        "--jobs", type=int, default=0,
        help="worker processes per micro-batch; 0 = one per CPU",
    )
    srv.add_argument(
        "--max-pending", type=int, default=256,
        help="admission-control bound on unique in-flight simulations",
    )
    srv.add_argument(
        "--timeout-s", type=float, default=60.0,
        help="default per-request wait deadline",
    )
    srv.add_argument(
        "--batch-window-ms", type=float, default=5.0,
        help="micro-batch gather window for cache misses",
    )
    srv.add_argument(
        "--drain-s", type=float, default=30.0,
        help="SIGTERM drain budget: how long to let in-flight requests "
        "finish before the broker is torn down",
    )
    srv.add_argument(
        "--checkpoint-dir", default=None,
        help="durable campaign journal: scenario campaigns survive a "
        "crash of this process and resume (by fingerprint) on restart "
        "from the same DIR",
    )

    flt_srv = sub.add_parser(
        "fleet", help="supervise N serve replicas sharing one result cache"
    )
    flt_srv.add_argument(
        "--replicas", type=int, default=3, help="replica count to babysit"
    )
    flt_srv.add_argument("--host", default="127.0.0.1")
    flt_srv.add_argument(
        "--cache-dir", default=None,
        help="shared on-disk result-cache tier (content-addressed, so "
        "replicas share it without coordination)",
    )
    flt_srv.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes per replica micro-batch; 0 = one per CPU",
    )
    flt_srv.add_argument(
        "--max-pending", type=int, default=256,
        help="per-replica admission-control bound",
    )
    flt_srv.add_argument(
        "--timeout-s", type=float, default=60.0,
        help="per-replica default request wait deadline",
    )
    flt_srv.add_argument(
        "--batch-window-ms", type=float, default=5.0,
        help="per-replica micro-batch gather window",
    )
    flt_srv.add_argument(
        "--log-dir", default=None,
        help="directory for per-replica server logs (default: discard)",
    )
    flt_srv.add_argument(
        "--metrics-json", default=None,
        help="write the fleet's bench-metrics/v1 snapshot here on shutdown",
    )
    flt_srv.add_argument(
        "--checkpoint-dir", default=None,
        help="shared durable campaign journal: any replica can resume "
        "any campaign after a crash (content-addressed campaign ids)",
    )

    ckpt = sub.add_parser(
        "checkpoint", help="checkpoint-journal maintenance"
    )
    ckpt_sub = ckpt.add_subparsers(dest="checkpoint_command", required=True)
    ckpt_gc = ckpt_sub.add_parser(
        "gc",
        help="compact the append-only journal: drop superseded and torn "
        "entries, rewrite atomically",
    )
    ckpt_gc.add_argument("dir", help="checkpoint directory holding journal.jsonl")
    ckpt_gc.add_argument(
        "--dry-run", action="store_true",
        help="report what would be dropped without rewriting the journal",
    )

    cache = sub.add_parser(
        "cache", help="result-cache and campaign-journal integrity"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_verify = cache_sub.add_parser(
        "verify",
        help="scrub on-disk cache entries and campaign journals for torn "
        "writes, bit rot, and misfiled keys; --repair quarantines them "
        "so readers see misses, never wrong hits",
    )
    cache_verify.add_argument(
        "--cache-dir", default=None,
        help="on-disk result-cache tier to scrub (serve's --cache-dir)",
    )
    cache_verify.add_argument(
        "--checkpoint", metavar="DIR", default=None,
        help="checkpoint directory to scrub: cell journal plus campaign "
        "manifests and event logs",
    )
    cache_verify.add_argument(
        "--repair", action="store_true",
        help="quarantine corrupt cache entries and truncate torn "
        "campaign logs (without it, verify only reports and exits 1 "
        "on corruption)",
    )
    cache_verify.add_argument(
        "--json", action="store_true",
        help="machine-readable scrub reports",
    )

    sched_list = sub.add_parser(
        "schedulers", help="list registered schedulers and their capabilities"
    )
    sched_list.add_argument(
        "--json", action="store_true", help="machine-readable capability table"
    )

    wl_list = sub.add_parser(
        "workloads", help="list canonical workloads and their shapes"
    )
    wl_list.add_argument(
        "--json", action="store_true", help="machine-readable workload table"
    )

    scn = sub.add_parser(
        "scenario", help="declarative scenario packs: list / validate / run"
    )
    scn_sub = scn.add_subparsers(dest="scenario_command", required=True)
    scn_list = scn_sub.add_parser("list", help="bundled scenario packs")
    scn_list.add_argument(
        "--json", action="store_true",
        help="per-pack detail (tasks, schedulers, fingerprint)",
    )
    scn_val = scn_sub.add_parser(
        "validate", help="parse, normalise, and fingerprint scenario documents"
    )
    scn_val.add_argument(
        "scenarios", nargs="+", metavar="SCENARIO",
        help="bundled pack name or path to a scenario JSON file",
    )
    scn_run = scn_sub.add_parser(
        "run", help="execute a scenario's whole campaign grid"
    )
    scn_run.add_argument(
        "scenario", metavar="SCENARIO",
        help="bundled pack name or path to a scenario JSON file",
    )
    scn_run.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the campaign grid; 0 = one per CPU",
    )
    scn_run.add_argument(
        "--json", action="store_true",
        help="stream one JSON progress event per finished cell",
    )
    scn_sub.add_parser(
        "check",
        help="CI gate: round-trip every bundled pack and validate (m,k) "
        "feasibility of the weakly-hard ones",
    )

    qry = sub.add_parser(
        "query", help="ask the service one question (in-process or --url)"
    )
    qry.add_argument(
        "--kind", choices=["schedulability", "rta", "energy"], default="energy"
    )
    qry.add_argument("--app", choices=available_workloads(), required=True)
    qry.add_argument(
        "--scheduler", choices=available_schedulers(), default="lpfps"
    )
    qry.add_argument("--seed", type=int, default=1)
    qry.add_argument("--bcet-ratio", type=float, default=None)
    qry.add_argument("--duration", type=float, default=None, help="horizon in us")
    qry.add_argument(
        "--execution", choices=["gaussian", "wcet"], default="gaussian"
    )
    qry.add_argument(
        "--url", default=None,
        help="base URL of a running `lpfps serve`; omit to answer in-process",
    )
    qry.add_argument(
        "--max-attempts", type=int, default=5,
        help="retry budget for --url queries (503/504 retried with backoff, "
        "honoring the server's Retry-After pacing hint); 1 disables retries",
    )
    qry.add_argument(
        "--cache-dir", default=None,
        help="on-disk cache tier for in-process queries (shared with serve)",
    )
    qry.add_argument(
        "--jobs", type=int, default=0,
        help="worker processes for in-process queries; 0 = one per CPU",
    )

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)

    # Each command imports its implementation here, so a process start
    # loads only the code the command runs.
    if args.command == "figure1":
        from .experiments.figure1 import run_figure1

        print(run_figure1().render())
    elif args.command == "table1":
        from .experiments.table1_schedule import run_table1

        result = run_table1()
        print(result.render())
        if not result.all_checks_pass:
            return 1
    elif args.command == "table2":
        from .experiments.table2 import run_table2

        print(run_table2().render())
    elif args.command == "figure7":
        from .experiments.figure7 import run_figure7

        print(run_figure7().render())
    elif args.command == "figure8":
        from .experiments.figure8 import run_figure8, run_figure8_all

        if args.app == "all":
            for name, result in run_figure8_all(
                seeds=args.seeds, jobs=args.jobs, checkpoint=args.checkpoint
            ).items():
                print(result.render())
                print()
        else:
            print(
                run_figure8(
                    args.app, seeds=args.seeds, jobs=args.jobs,
                    checkpoint=args.checkpoint,
                ).render()
            )
    elif args.command == "ablation":
        from .experiments.ablations import (
            run_frequency_grid_ablation,
            run_mechanism_ablation,
            run_policy_ablation,
            run_rho_ablation,
        )

        runs = {
            "policy": lambda: run_policy_ablation(
                application=args.app or "cnc", bcet_ratio=args.bcet_ratio
            ),
            "mechanisms": lambda: run_mechanism_ablation(
                application=args.app or "ins", bcet_ratio=args.bcet_ratio
            ),
            "freqgrid": lambda: run_frequency_grid_ablation(
                application=args.app or "ins", bcet_ratio=args.bcet_ratio
            ),
            "rho": lambda: run_rho_ablation(
                application=args.app or "cnc", bcet_ratio=args.bcet_ratio
            ),
        }
        which = list(runs) if args.which == "all" else [args.which]
        for key in which:
            print(runs[key]().render())
            print()
    elif args.command == "extensions":
        from .experiments.extensions import (
            run_oracle_gap,
            run_overhead_tradeoff,
            run_predictive_failure,
        )
        from .experiments.weakly_hard import run_weakly_hard

        runs = {
            "overhead": run_overhead_tradeoff,
            "oracle": run_oracle_gap,
            "predictive": run_predictive_failure,
            "weaklyhard": run_weakly_hard,
        }
        which = list(runs) if args.which == "all" else [args.which]
        for key in which:
            print(runs[key]().render())
            print()
    elif args.command == "faults":
        from .faults.campaign import run_campaign
        from .workloads.registry import get_workload

        taskset = (
            get_workload(args.workload).prioritized().with_bcet_ratio(args.bcet_ratio)
        )
        campaign = run_campaign(
            taskset,
            injector=args.injector,
            intensity=args.intensity,
            policies=args.policies,
            seeds=tuple(args.seed),
            miss_policy=args.miss_policy,
            jobs=args.jobs,
            checkpoint=args.checkpoint,
        )
        print(campaign.render())
    elif args.command == "validate":
        from .experiments.runner import measurement_duration
        from .power.processor import ProcessorSpec
        from .schedulers.registry import make_scheduler
        from .sim.audit import audit_energy
        from .sim.engine import simulate
        from .sim.validate import validate_trace
        from .tasks.generation import GaussianModel
        from .workloads.registry import get_workload

        workload = get_workload(args.app)
        taskset = workload.prioritized().with_bcet_ratio(args.bcet_ratio)
        duration = (
            args.duration
            if args.duration is not None
            else min(measurement_duration(taskset), 2_000_000.0)
        )
        scheduler = make_scheduler(args.scheduler)
        result = simulate(
            taskset,
            scheduler,
            execution_model=GaussianModel(),
            duration=duration,
            seed=args.seed,
            on_miss="record",
            record_trace=True,
        )
        fp_policy = getattr(scheduler, "run_queue_key", None) is not None and (
            args.scheduler not in ("edf", "avr", "yds")
        )
        violations = validate_trace(
            result.trace,
            taskset,
            check_priorities=fp_policy,
            check_slowdown_exclusive=args.scheduler.startswith("lpfps"),
        )
        print(result.summary())
        if violations:
            print(f"{len(violations)} invariant violation(s):")
            for violation in violations[:20]:
                print(f"  {violation}")
            return 1
        print("trace passes all kernel invariants")
        audit = audit_energy(
            result.trace, ProcessorSpec.arm8(), result.energy, tolerance=1e-4
        )
        print(audit.summary())
        if not audit.consistent:
            return 1
    elif args.command == "simulate":
        from .experiments.runner import measurement_duration
        from .schedulers.registry import make_scheduler
        from .sim.engine import simulate
        from .tasks.generation import GaussianModel
        from .workloads.registry import get_workload

        workload = get_workload(args.app)
        taskset = workload.prioritized().with_bcet_ratio(args.bcet_ratio)
        duration = (
            args.duration
            if args.duration is not None
            else measurement_duration(taskset)
        )
        result = simulate(
            taskset,
            make_scheduler(args.scheduler),
            execution_model=GaussianModel(),
            duration=duration,
            seed=args.seed,
            on_miss="record",
        )
        print(result.summary())
        if result.missed:
            return 1
    elif args.command == "profile":
        return _run_profile(args)
    elif args.command == "serve":
        return _run_serve(args)
    elif args.command == "fleet":
        return _run_fleet(args)
    elif args.command == "checkpoint":
        return _run_checkpoint_gc(args)
    elif args.command == "cache":
        return _run_cache_verify(args)
    elif args.command == "schedulers":
        return _run_schedulers(args)
    elif args.command == "workloads":
        return _run_workloads(args)
    elif args.command == "scenario":
        return _run_scenario(args)
    elif args.command == "query":
        return _run_query(args)
    return 0


def _run_profile(args) -> int:
    """Profile one run; print the breakdown and write the JSON payload."""
    import pathlib

    from .errors import ReproError
    from .obs.profiler import profile_run

    try:
        report = profile_run(
            args.scheduler,
            args.workload,
            duration=args.duration,
            seed=args.seed,
            bcet_ratio=args.bcet_ratio,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(report.render())
    path = report.write(pathlib.Path(args.out_dir))
    print(f"\nwrote {path}")
    return 0


def _run_serve(args) -> int:
    """Serve until SIGTERM/SIGINT, then drain and exit cleanly."""
    import signal
    import threading

    from .service.broker import ServiceGuards
    from .service.server import ScheduleService, make_server

    guards = ServiceGuards(
        max_pending=args.max_pending,
        request_timeout_s=args.timeout_s,
        batch_window_s=args.batch_window_ms / 1_000.0,
    )
    service = ScheduleService(
        cache_dir=args.cache_dir,
        memory_items=args.memory_items,
        guards=guards,
        jobs=args.jobs,
        checkpoint_dir=args.checkpoint_dir,
    )
    if args.checkpoint_dir is not None:
        resumed = service.resume_campaigns()
        if resumed:
            print(
                f"resumed {len(resumed)} orphaned campaign(s): "
                + " ".join(resumed),
                flush=True,
            )
    server = make_server(service, args.host, args.port)
    stop = threading.Event()

    def _request_stop(signum, frame):  # noqa: ARG001 - signal contract
        stop.set()

    signal.signal(signal.SIGTERM, _request_stop)
    signal.signal(signal.SIGINT, _request_stop)
    thread = threading.Thread(
        target=server.serve_forever, name="lpfps-serve", daemon=True
    )
    thread.start()
    print(f"serving on {server.url}", flush=True)
    try:
        stop.wait()
    finally:
        # Orderly teardown, in drain order: stop the accept loop, close
        # the listening socket (no new connections), let every in-flight
        # request finish against the still-live broker, and only then
        # close the broker so no pool worker outlives the process.
        server.shutdown()
        thread.join(timeout=10.0)
        server.server_close()
        pending = server.inflight()
        if pending:
            print(f"draining {pending} in-flight request(s)", flush=True)
        if not server.wait_idle(timeout=args.drain_s):
            print(
                f"drain timeout after {args.drain_s:g}s; "
                f"{server.inflight()} request(s) abandoned",
                flush=True,
            )
        service.close()
    print("shutdown complete", flush=True)
    return 0


def _run_fleet(args) -> int:
    """Supervise a replica fleet until SIGTERM/SIGINT, then drain it."""
    import json
    import signal
    import threading

    from .service.supervisor import FleetError, FleetSupervisor

    supervisor = FleetSupervisor(
        replicas=args.replicas,
        host=args.host,
        cache_dir=args.cache_dir,
        jobs=args.jobs,
        max_pending=args.max_pending,
        timeout_s=args.timeout_s,
        batch_window_ms=args.batch_window_ms,
        log_dir=args.log_dir,
        checkpoint_dir=args.checkpoint_dir,
    )
    stop = threading.Event()

    def _request_stop(signum, frame):  # noqa: ARG001 - signal contract
        stop.set()

    signal.signal(signal.SIGTERM, _request_stop)
    signal.signal(signal.SIGINT, _request_stop)
    try:
        supervisor.start()
    except FleetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for url in supervisor.urls():
        print(f"replica serving on {url}", flush=True)
    print(f"fleet of {args.replicas} ready", flush=True)
    try:
        stop.wait()
    finally:
        supervisor.stop()
        if args.metrics_json is not None:
            import pathlib

            path = pathlib.Path(args.metrics_json)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(supervisor.metrics(), indent=2))
            print(f"wrote {path}", flush=True)
    print("fleet shutdown complete", flush=True)
    return 0


def _run_checkpoint_gc(args) -> int:
    """``lpfps checkpoint gc``: compact a journal, report what changed."""
    from .errors import ReproError
    from .experiments.checkpoint import gc_journal

    try:
        report = gc_journal(args.dir, dry_run=args.dry_run)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(report.render())
    return 0


def _run_cache_verify(args) -> int:
    """``lpfps cache verify``: integrity-scrub caches and campaign journals.

    Exit status is the contract CI leans on: 0 when everything scanned
    is intact (or was just repaired), 1 when corruption was found and
    ``--repair`` was not given — so a cron'd ``lpfps cache verify``
    turns silent bit rot into a red job instead of a wrong answer.
    """
    import json

    from .errors import ReproError
    from .experiments.checkpoint import scrub_journal
    from .service.cache import scrub_cache
    from .service.durability import CampaignStore

    if args.cache_dir is None and args.checkpoint is None:
        print(
            "error: nothing to verify; pass --cache-dir and/or --checkpoint",
            file=sys.stderr,
        )
        return 2
    reports = []
    try:
        if args.cache_dir is not None:
            reports.append(scrub_cache(args.cache_dir, repair=args.repair))
        if args.checkpoint is not None:
            reports.append(scrub_journal(args.checkpoint, repair=args.repair))
            store_report = CampaignStore(args.checkpoint).scrub(
                repair=args.repair
            )
            reports.append(store_report)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    documents = [
        report if isinstance(report, dict) else report.to_document()
        for report in reports
    ]
    if args.json:
        print(json.dumps(documents, indent=2, sort_keys=True))
    else:
        for report in reports:
            if isinstance(report, dict):
                print(_render_campaign_scrub(report))
            else:
                print(report.render())
    corrupt = sum(
        document.get("corrupt", 0)
        + document.get("manifests_corrupt", 0)
        + document.get("events_corrupt", 0)
        + document.get("logs_unreadable", 0)
        for document in documents
    )
    if corrupt and not args.repair:
        return 1
    return 0


def _render_campaign_scrub(report) -> str:
    """Human-readable summary of a :meth:`CampaignStore.scrub` report."""
    lines = [
        "campaign-store scrub"
        + (" (repair)" if report.get("repair") else " (report only)"),
        f"  manifests: {report.get('manifests', 0)} "
        f"({report.get('manifests_corrupt', 0)} corrupt)",
        f"  event logs: {report.get('event_logs', 0)} "
        f"({report.get('logs_truncated', 0)} truncated, "
        f"{report.get('logs_unreadable', 0)} unreadable)",
        f"  events: {report.get('events', 0)} "
        f"({report.get('events_corrupt', 0)} corrupt)",
    ]
    for problem in report.get("problems", []):
        lines.append(f"  problem: {problem}")
    return "\n".join(lines)


def _run_schedulers(args) -> int:
    """``lpfps schedulers``: the registry with capability flags."""
    import json

    from .schedulers.registry import scheduler_capabilities

    rows = scheduler_capabilities()
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    print(
        f"{'name':<16} {'policy':<28} {'priorities':>10} "
        f"{'tick':>5} {'(m,k)':>6} {'oracle':>7}"
    )
    for row in rows:
        print(
            f"{row['name']:<16} {row['policy']:<28} "
            f"{'yes' if row['requires_priorities'] else 'no':>10} "
            f"{'yes' if row['tick_driven'] else 'no':>5} "
            f"{'yes' if row['weakly_hard'] else 'no':>6} "
            f"{'yes' if row['oracle'] else 'no':>7}"
        )
    return 0


def _run_workloads(args) -> int:
    """``lpfps workloads``: canonical workload shapes."""
    import json

    from .workloads.registry import workload_capabilities

    rows = workload_capabilities()
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    print(
        f"{'name':<12} {'tasks':>5} {'util':>7} {'hyperperiod_us':>15} "
        f"{'reconstructed':>13}"
    )
    for row in rows:
        print(
            f"{row['name']:<12} {row['tasks']:>5} {row['utilization']:>7.3f} "
            f"{row['hyperperiod_us']:>15.0f} "
            f"{'yes' if row['reconstructed'] else 'no':>13}"
        )
    return 0


def _resolve_scenario(name_or_path: str):
    """A scenario from a bundled pack name or a JSON file path."""
    import pathlib

    from .scenarios import load_pack, load_scenario

    path = pathlib.Path(name_or_path)
    if path.suffix == ".json" or path.is_file():
        return load_scenario(path)
    return load_pack(name_or_path)


def _run_scenario(args) -> int:
    """``lpfps scenario list|validate|run|check``."""
    import json

    from .errors import ReproError
    from .scenarios import available_packs, load_pack, run_scenario

    if args.scenario_command == "list":
        if args.json:
            rows = []
            for name in available_packs():
                scenario = load_pack(name)
                rows.append(
                    {
                        "name": name,
                        "tasks": len(scenario.taskset.tasks),
                        "utilization": round(scenario.taskset.utilization, 6),
                        "schedulers": list(scenario.campaign.schedulers),
                        "seeds": list(scenario.campaign.seeds),
                        "weakly_hard": {
                            task: list(constraint.as_pair())
                            for task, constraint in sorted(
                                scenario.constraints.items()
                            )
                        },
                        "fingerprint": scenario.fingerprint(),
                    }
                )
            print(json.dumps(rows, indent=2, sort_keys=True))
        else:
            for name in available_packs():
                print(name)
        return 0
    if args.scenario_command == "validate":
        status = 0
        for entry in args.scenarios:
            try:
                scenario = _resolve_scenario(entry)
            except ReproError as exc:
                print(f"{entry}: INVALID: {exc}", file=sys.stderr)
                status = 1
                continue
            print(f"{entry}: ok  fingerprint {scenario.fingerprint()}")
        return status
    if args.scenario_command == "run":
        try:
            scenario = _resolve_scenario(args.scenario)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        progress = None
        if args.json:
            progress = lambda event: print(  # noqa: E731 - tiny adapter
                json.dumps(event, sort_keys=True), flush=True
            )
        report = run_scenario(scenario, jobs=args.jobs, progress=progress)
        print(report.render())
        failed = any(cell.failed for cell in report.cells)
        violated = scenario.constraints and any(
            cell.satisfied is False for cell in report.cells
        )
        return 1 if failed or violated else 0
    if args.scenario_command == "check":
        return _run_scenario_check()
    return 0


def _run_scenario_check() -> int:
    """The CI gate: every pack parses, round-trips, and is (m,k)-feasible."""
    from .analysis.weakly_hard import jcl_schedulability
    from .errors import ReproError
    from .scenarios import available_packs, load_pack, parse_scenario

    packs = available_packs()
    if not packs:
        print("error: no bundled packs found", file=sys.stderr)
        return 1
    status = 0
    for name in packs:
        try:
            scenario = load_pack(name)
            fingerprint = scenario.fingerprint()
            reparsed = parse_scenario(scenario.canonical_document())
            if reparsed.fingerprint() != fingerprint:
                print(
                    f"{name}: FAIL: canonical round-trip changed the "
                    f"fingerprint ({fingerprint[:12]} -> "
                    f"{reparsed.fingerprint()[:12]})",
                    file=sys.stderr,
                )
                status = 1
                continue
        except ReproError as exc:
            print(f"{name}: FAIL: {exc}", file=sys.stderr)
            status = 1
            continue
        line = f"{name}: round-trip ok  fingerprint {fingerprint[:12]}"
        if scenario.constraints:
            verdict = jcl_schedulability(scenario.taskset, scenario.constraints)
            if not verdict.schedulable:
                print(f"{name}: FAIL: {verdict.reason}", file=sys.stderr)
                status = 1
                continue
            line += f"  (m,k) schedulable (demand {verdict.demand:.3f})"
        print(line)
    return status


def _run_query(args) -> int:
    """Answer one query — against a remote server or in-process."""
    import json

    request = {
        "kind": args.kind,
        "app": args.app,
        "scheduler": args.scheduler,
        "seed": args.seed,
        "execution": args.execution,
    }
    if args.bcet_ratio is not None:
        request["bcet_ratio"] = args.bcet_ratio
    if args.duration is not None:
        request["duration"] = args.duration
    if args.url is not None:
        from .errors import ReproError
        from .service.client import TRANSPORT_ERRORS
        from .service.fleet import FleetClient
        from .service.retry import RetryPolicy

        try:
            client = FleetClient(
                [args.url], policy=RetryPolicy(max_attempts=args.max_attempts)
            )
            status, payload = client(request)
        except (ReproError,) + TRANSPORT_ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if status == 200 and payload.get("ok", False) else 1
    from .errors import ServiceError
    from .service.server import ScheduleService

    service = ScheduleService(cache_dir=args.cache_dir, jobs=args.jobs)
    try:
        payload = service.query_dict(request)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        service.close()
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0 if payload.get("ok", False) else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
