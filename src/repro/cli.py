"""Command-line interface: plan a design and print the result.

Examples::

    repro-soc plan d695 --width 32
    repro-soc plan System1 --width 31 --no-compression --gantt
    repro-soc figure 2
    repro-soc table 3 --widths 16,32
    repro-soc describe System2
    repro-soc simulate d695 --width 16
    repro-soc export d695 --width 24 --out plan.json
    repro-soc power System2 --width 32 --budget-fraction 0.5
    repro-soc plan d695 --width 16 --trace trace.json --report report.json
    repro-soc report report.json
    repro-soc benchmarks
    repro-soc serve --port 7465 --jobs 4
    repro-soc submit d695 --width 16 --port 7465
    repro-soc status --port 7465
    repro-soc top --port 7465

Every planning subcommand builds one
:class:`~repro.pipeline.config.RunConfig` from the shared performance
flags (``--jobs`` / ``--cache-dir`` / ``--no-cache``, with their
``REPRO_*`` environment equivalents applied at resolve time) and hands
it to the staged pipeline.  ``--verbose`` surfaces the pipeline's
structured run events on stderr via ``logging``; regular output stays
on stdout.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from repro import obs
from repro.core.architecture import architecture_summary
from repro.pipeline import RunConfig
from repro.pipeline import plan as run_plan
from repro.soc.industrial import load_design


def _run_config(args: argparse.Namespace, **overrides: object) -> RunConfig:
    """One :class:`RunConfig` from the shared performance flags.

    The CLI enables the persistent analysis cache by default (every
    invocation is a fresh process, so on-disk reuse is where repeated
    ``figure``/``table``/``plan`` runs win); ``--no-cache`` opts out.
    """
    return RunConfig(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=False if args.no_cache else True,
        **overrides,  # type: ignore[arg-type]
    )


def _configure_logging(verbosity: int) -> None:
    """Route the pipeline's run events to stderr at -v/-vv."""
    if not verbosity:
        return
    level = logging.INFO if verbosity == 1 else logging.DEBUG
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    logger = logging.getLogger("repro")
    logger.addHandler(handler)
    logger.setLevel(level)


def _search_opts_from_args(args: argparse.Namespace) -> dict[str, str]:
    """Collect --search-opt KEY=VALUE pairs (plus --study/--resume sugar)."""
    opts: dict[str, str] = {}
    for item in getattr(args, "search_opt", None) or []:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ValueError(
                f"--search-opt expects KEY=VALUE, got {item!r}"
            )
        opts[key.strip()] = value
    if getattr(args, "study", None):
        opts.setdefault("study", args.study)
    if getattr(args, "resume", False):
        opts.setdefault("resume", "true")
    return opts


def _pack_opts_from_args(args: argparse.Namespace) -> dict[str, str]:
    """Collect --pack-opt KEY=VALUE pairs for the rectangle packer."""
    opts: dict[str, str] = {}
    for item in getattr(args, "pack_opt", None) or []:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ValueError(f"--pack-opt expects KEY=VALUE, got {item!r}")
        opts[key.strip()] = value
    return opts


def _cmd_plan(args: argparse.Namespace) -> int:
    soc = load_design(args.design)
    compression = "none" if args.no_compression else args.compression
    try:
        search_opts = _search_opts_from_args(args)
        pack_opts = _pack_opts_from_args(args)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    config = _run_config(
        args,
        compression=compression,
        max_tams=args.max_tams,
        strategy=args.strategy,
        search_opts=tuple(sorted(search_opts.items())),
        architecture=args.architecture,
        schedule=args.schedule,
        pack_opts=tuple(sorted(pack_opts.items())),
        verify=args.verify,
    )
    try:
        result = run_plan(soc, args.width, config)
    except ValueError as error:
        # Backend option validation (unknown knob, bad value) is a usage
        # error, same as a malformed --search-opt.
        print(str(error), file=sys.stderr)
        return 2
    print(architecture_summary(result.architecture))
    print(
        f"partitions evaluated: {result.partitions_evaluated} "
        f"({result.strategy}), cpu {result.cpu_seconds:.2f} s"
    )
    if args.gantt:
        print(result.architecture.render_gantt())
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    soc = load_design(args.design)
    print(soc.describe())
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.reporting import experiments as exp

    config = _run_config(args)
    if args.number == 2:
        print(exp.format_figure2(exp.figure2_data(config=config)))
    elif args.number == 3:
        print(exp.format_figure3(exp.figure3_data(config=config)))
    elif args.number == 4:
        print(exp.format_figure4(exp.figure4_data(config=config)))
    else:
        print(f"no figure {args.number} in the paper", file=sys.stderr)
        return 2
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from repro.reporting import experiments as exp

    config = _run_config(args)
    widths = tuple(int(w) for w in args.widths.split(",")) if args.widths else None
    if args.number == 1:
        rows = exp.table1_rows(channels=widths or (16, 24, 32), config=config)
        print(exp.format_table1(rows))
    elif args.number == 2:
        rows = exp.table2_rows(widths=widths or (16, 24, 32, 48, 64), config=config)
        print(exp.format_table2(rows))
    elif args.number == 3:
        rows = exp.table3_rows(widths=widths or (16, 32, 48, 64), config=config)
        print(exp.format_table3(rows))
    else:
        print(f"no table {args.number} in the paper", file=sys.stderr)
        return 2
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.sim.simulator import simulate_architecture

    soc = load_design(args.design)
    config = _run_config(args, compression=args.compression)
    result = run_plan(soc, args.width, config)
    report = simulate_architecture(soc, result.architecture)
    print(
        f"simulated {report.soc_name}: {report.total_cycles} cycles "
        f"(planned {result.test_time}), {report.patterns_applied} patterns, "
        f"{report.bits_streamed} bits streamed, "
        f"{report.codewords_consumed} codewords"
    )
    verdict = "MATCH" if report.total_cycles == result.test_time else "MISMATCH"
    print(f"plan-vs-silicon: {verdict}")
    return 0 if verdict == "MATCH" else 1


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.reporting.export import result_to_json

    soc = load_design(args.design)
    config = _run_config(args, compression=args.compression)
    result = run_plan(soc, args.width, config)
    text = result_to_json(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_power(args: argparse.Namespace) -> int:
    from repro.power.model import power_table

    soc = load_design(args.design)
    table = power_table(soc, compression=args.compression != "none")
    budget = sum(table.values()) * args.budget_fraction
    config = _run_config(
        args, compression=args.compression, power_budget=budget
    )
    result = run_plan(soc, args.width, config)
    print(
        f"{soc.name} at W={args.width}, budget "
        f"{args.budget_fraction:.2f}x SOC power ({budget:.0f} units): "
        f"{result.test_time} cycles, peak power {result.peak_power:.0f}, "
        f"TAM idle {result.tam_idle_cycles} cycles"
    )
    print(result.architecture.render_gantt())
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify import verify_plan

    if args.plan:
        from repro.reporting.export import result_from_json

        with open(args.plan, "r", encoding="utf-8") as handle:
            text = handle.read()
        try:
            result = result_from_json(text)
        except (KeyError, TypeError, ValueError) as error:
            # The export reconstructs through the real constructors, so
            # a structurally impossible plan (overlap, wrong slot
            # length) is rejected before it even reaches the checker.
            print(
                f"rejected: {args.plan} is not a consistent plan export: "
                f"{error}",
                file=sys.stderr,
            )
            return 2
        try:
            soc = load_design(result.soc_name)
        except KeyError:
            soc = None  # unknown design: structural checks only
        config = RunConfig(compression=result.compression)
        report = verify_plan(result, soc, config=config)
    else:
        if not args.design or args.width is None:
            print(
                "verify needs DESIGN --width W, or --plan FILE",
                file=sys.stderr,
            )
            return 2
        soc = load_design(args.design)
        try:
            pack_opts = _pack_opts_from_args(args)
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return 2
        config = _run_config(
            args,
            compression=args.compression,
            architecture=getattr(args, "architecture", "auto"),
            schedule=getattr(args, "schedule", "auto"),
            pack_opts=tuple(sorted(pack_opts.items())),
        )
        result = run_plan(soc, args.width, config)
        report = verify_plan(result, soc, config=config)
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_benchmarks(args: argparse.Namespace) -> int:
    from repro.soc.industrial import design_catalog

    rows = design_catalog()
    if args.json:
        print(json.dumps(list(rows), indent=2))
        return 0
    header = f"{'design':<10} {'family':<11} {'cores':>5} {'scan cells':>11} {'patterns':>9} {'gates':>10}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['name']:<10} {row['family']:<11} {row['cores']:>5} "
            f"{row['scan_cells']:>11,} {row['patterns']:>9,} {row['gates']:>10,}"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs.logging import configure_json_logging
    from repro.serve.server import run_server
    from repro.serve.service import PlanningService, ServiceSettings

    settings = ServiceSettings(
        workers=args.jobs,
        max_depth=args.queue_depth,
        max_retries=args.max_retries,
        default_timeout_s=args.job_timeout,
        isolation=args.isolation,
        state_dir=args.state_dir,
        telemetry=not args.no_telemetry,
    )
    service = PlanningService(settings)
    # The service's structured lifecycle log goes to stderr as JSON
    # lines (one object per line, correlated by request_id), unless
    # the operator opted out.
    if not args.no_log:
        configure_json_logging(sys.stderr)
    # The ready line goes to stdout (scripts parse it for the real
    # port); the stopped summary to stderr so it never mixes in.
    return run_server(
        service,
        host=args.host,
        port=args.port,
        on_ready=lambda event: print(json.dumps(event), flush=True),
        on_stopped=lambda event: print(
            json.dumps(event), file=sys.stderr, flush=True
        ),
    )


def _client(args: argparse.Namespace) -> "object":
    from repro.serve.client import ServiceClient

    return ServiceClient(args.host, args.port)


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.serve.errors import BackpressureError

    config = _run_config(args, compression=args.compression)
    with _client(args) as client:  # type: ignore[attr-defined]
        try:
            ticket = client.submit(
                args.design,
                args.width,
                config,
                priority=args.priority,
                timeout_s=args.job_timeout,
            )
        except BackpressureError as error:
            print(
                f"rejected: {error} (retry after {error.retry_after:.3g} s)",
                file=sys.stderr,
            )
            return 3
        if args.no_wait:
            print(
                json.dumps(
                    {
                        "job_id": ticket.job_id,
                        "state": ticket.state,
                        "deduped": ticket.deduped,
                    }
                )
            )
            return 0
        result = client.fetch_plan(ticket.job_id, timeout_s=args.job_timeout)
    if args.json:
        from repro.reporting.export import result_to_json

        print(result_to_json(result))
    else:
        print(architecture_summary(result.architecture))
        dedup_note = " (coalesced with an identical in-flight job)" if ticket.deduped else ""
        print(f"job {ticket.job_id}{dedup_note}")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    with _client(args) as client:  # type: ignore[attr-defined]
        if args.job_id:
            payload = client.status(args.job_id)
            payload.pop("ok", None)
            payload.pop("v", None)
        else:
            payload = client.stats()
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.serve.errors import ServiceError
    from repro.serve.top import run_top

    try:
        with _client(args) as client:  # type: ignore[attr-defined]
            code = run_top(
                client,
                interval_s=args.interval,
                iterations=1 if args.once else None,
            )
            if code == 0 and args.metrics:
                print(client.metrics(), end="")
            return code
    except (OSError, ServiceError) as error:
        print(f"service unreachable: {error}", file=sys.stderr)
        return 3


def _add_client_args(parser: argparse.ArgumentParser) -> None:
    from repro.serve.server import DEFAULT_HOST, DEFAULT_PORT

    group = parser.add_argument_group("service connection")
    group.add_argument("--host", default=DEFAULT_HOST)
    group.add_argument("--port", type=int, default=DEFAULT_PORT)


def _add_perf_args(parser: argparse.ArgumentParser) -> None:
    """Shared analysis-engine knobs (see docs/api.md, Performance & caching)."""
    group = parser.add_argument_group("performance")
    group.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for per-core analyses "
        "(0 = one per CPU; default: REPRO_JOBS, else serial)",
    )
    group.add_argument(
        "--cache-dir",
        default=None,
        help="persistent analysis-cache directory "
        "(default: REPRO_CACHE_DIR, else ~/.cache/repro-soc/analysis)",
    )
    group.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent analysis cache for this run",
    )
    group.add_argument(
        "--verbose",
        "-v",
        action="count",
        default=0,
        help="log pipeline run events to stderr (-v stage timings, "
        "-vv every event)",
    )
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a Chrome trace-event JSON of the run "
        "(open in Perfetto / chrome://tracing)",
    )
    group.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="write the run report JSON (render it back with "
        "'repro-soc report PATH')",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-soc",
        description="SOC test-architecture optimization with core-level "
        "test-pattern expansion (DATE 2008 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="optimize one design at a width budget")
    plan.add_argument(
        "design",
        help="d695, d2758, System1..System4, or a synthetic synthN "
        "(e.g. synth150)",
    )
    plan.add_argument("--width", type=int, required=True, help="W_TAM budget")
    plan.add_argument(
        "--compression",
        choices=["per-core", "none", "auto", "select"],
        default="per-core",
    )
    plan.add_argument("--no-compression", action="store_true")
    plan.add_argument("--max-tams", type=int, default=None)
    plan.add_argument(
        "--strategy",
        default="auto",
        help="architecture-search backend: auto, exhaustive, greedy, "
        "anneal, evolutionary, or one added with register_backend (see "
        "docs/search.md); the constrained and per-tam architecture "
        "stages accept auto, exhaustive and greedy only",
    )
    plan.add_argument(
        "--search-opt",
        action="append",
        metavar="KEY=VALUE",
        default=None,
        help="backend hyperparameter override, repeatable (e.g. "
        "--search-opt iterations=8000 --search-opt seed=7); keys are "
        "validated against the chosen backend",
    )
    plan.add_argument(
        "--architecture",
        default="auto",
        metavar="STAGE",
        help="registered architecture (step-3) stage; 'packing' selects "
        "the flexible-width rectangle packer (see docs/packing.md); "
        "default: auto (compression/constraint routing)",
    )
    plan.add_argument(
        "--schedule",
        default="auto",
        metavar="STAGE",
        help="registered schedule (step-4) stage; pair 'packing' with "
        "--architecture packing; default: auto",
    )
    plan.add_argument(
        "--pack-opt",
        action="append",
        metavar="KEY=VALUE",
        default=None,
        help="rectangle-packer override, repeatable (heuristic="
        "bottom-left|diagonal|auto, max_widths=N)",
    )
    plan.add_argument(
        "--study",
        metavar="PATH",
        default=None,
        help="evolutionary only: JSON study store checkpointed every "
        "generation (shorthand for --search-opt study=PATH)",
    )
    plan.add_argument(
        "--resume",
        action="store_true",
        help="evolutionary only: continue from the --study checkpoint "
        "(shorthand for --search-opt resume=true)",
    )
    plan.add_argument("--gantt", action="store_true", help="print a Gantt chart")
    plan.add_argument(
        "--verify",
        action="store_true",
        help="run the invariant checker as a pipeline stage (fails the run "
        "on any violation)",
    )
    _add_perf_args(plan)
    plan.set_defaults(func=_cmd_plan)

    verify = sub.add_parser(
        "verify",
        help="independently re-check a plan against the invariant catalog",
    )
    verify.add_argument(
        "design", nargs="?", default=None, help="design to plan and verify"
    )
    verify.add_argument("--width", type=int, default=None, help="W_TAM budget")
    verify.add_argument(
        "--compression",
        choices=["per-core", "none", "auto", "select", "per-tam"],
        default="per-core",
    )
    verify.add_argument(
        "--plan",
        default=None,
        metavar="FILE",
        help="verify an exported plan JSON instead of planning afresh",
    )
    verify.add_argument(
        "--architecture",
        default="auto",
        metavar="STAGE",
        help="architecture stage to plan with (e.g. packing)",
    )
    verify.add_argument(
        "--schedule",
        default="auto",
        metavar="STAGE",
        help="schedule stage to plan with (e.g. packing)",
    )
    verify.add_argument(
        "--pack-opt",
        action="append",
        metavar="KEY=VALUE",
        default=None,
        help="rectangle-packer override, repeatable",
    )
    _add_perf_args(verify)
    verify.set_defaults(func=_cmd_verify)

    describe = sub.add_parser("describe", help="print a design summary")
    describe.add_argument("design")
    describe.set_defaults(func=_cmd_describe)

    figure = sub.add_parser("figure", help="reproduce a paper figure")
    figure.add_argument("number", type=int)
    _add_perf_args(figure)
    figure.set_defaults(func=_cmd_figure)

    table = sub.add_parser("table", help="reproduce a paper table")
    table.add_argument("number", type=int)
    table.add_argument("--widths", default=None, help="comma-separated widths")
    _add_perf_args(table)
    table.set_defaults(func=_cmd_table)

    simulate = sub.add_parser(
        "simulate", help="replay a plan through the bit-level simulator"
    )
    simulate.add_argument("design")
    simulate.add_argument("--width", type=int, required=True)
    simulate.add_argument(
        "--compression",
        choices=["per-core", "none", "auto", "select"],
        default="auto",
    )
    _add_perf_args(simulate)
    simulate.set_defaults(func=_cmd_simulate)

    export = sub.add_parser("export", help="plan and export to JSON")
    export.add_argument("design")
    export.add_argument("--width", type=int, required=True)
    export.add_argument(
        "--compression",
        choices=["per-core", "none", "auto", "select"],
        default="auto",
    )
    export.add_argument("--out", default=None, help="output path (default stdout)")
    _add_perf_args(export)
    export.set_defaults(func=_cmd_export)

    power = sub.add_parser("power", help="plan under a flat power budget")
    power.add_argument("design")
    power.add_argument("--width", type=int, required=True)
    power.add_argument(
        "--compression",
        choices=["per-core", "none", "auto"],
        default="per-core",
    )
    power.add_argument(
        "--budget-fraction",
        type=float,
        default=0.5,
        help="budget as a fraction of total SOC flat power",
    )
    _add_perf_args(power)
    power.set_defaults(func=_cmd_power)

    report = sub.add_parser(
        "report", help="render a saved run-report JSON as summary tables"
    )
    report.add_argument("file", help="a --report artifact or result export")
    report.set_defaults(func=_cmd_report)

    benchmarks = sub.add_parser(
        "benchmarks", help="list the available designs with core counts"
    )
    benchmarks.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    benchmarks.set_defaults(func=_cmd_benchmarks)

    serve = sub.add_parser(
        "serve", help="run the concurrent planning service (line-JSON TCP)"
    )
    _add_client_args(serve)
    serve.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="concurrent worker slots (0 = one per CPU; "
        "default: REPRO_JOBS, else 1)",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        help="pending-job bound before submissions get backpressure",
    )
    serve.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="re-runs after a worker crash (exponential backoff)",
    )
    serve.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        help="default per-job deadline in seconds",
    )
    serve.add_argument(
        "--isolation",
        choices=["process", "thread"],
        default="process",
        help="process: warm, killable worker processes, one job at a "
        "time each (default); thread: in-process, no preemptive timeout",
    )
    serve.add_argument(
        "--state-dir",
        default=None,
        help="directory for queue persistence across restarts",
    )
    serve.add_argument(
        "--no-telemetry",
        action="store_true",
        help="disable live telemetry (rolling latency windows and the "
        "metrics/health ops degrade gracefully); the zero-overhead "
        "configuration",
    )
    serve.add_argument(
        "--no-log",
        action="store_true",
        help="suppress the structured JSON log lines on stderr",
    )
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit one plan request to a running service"
    )
    submit.add_argument("design")
    submit.add_argument("--width", type=int, required=True)
    submit.add_argument(
        "--compression",
        choices=["per-core", "none", "auto", "select"],
        default="per-core",
    )
    submit.add_argument(
        "--priority", type=int, default=0, help="higher runs earlier"
    )
    submit.add_argument(
        "--job-timeout", type=float, default=None, help="per-job deadline (s)"
    )
    submit.add_argument(
        "--no-wait",
        action="store_true",
        help="print the job id instead of waiting for the result",
    )
    submit.add_argument(
        "--json", action="store_true", help="print the full result export"
    )
    _add_client_args(submit)
    _add_perf_args(submit)
    submit.set_defaults(func=_cmd_submit)

    status = sub.add_parser(
        "status", help="query a running service (a job, or overall stats)"
    )
    status.add_argument("job_id", nargs="?", default=None)
    _add_client_args(status)
    status.set_defaults(func=_cmd_status)

    top = sub.add_parser(
        "top", help="live dashboard of a running service (stats + health)"
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between refreshes",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="print one frame and exit (scripting/CI)",
    )
    top.add_argument(
        "--metrics",
        action="store_true",
        help="also dump the raw OpenMetrics exposition after the frame",
    )
    _add_client_args(top)
    top.set_defaults(func=_cmd_top)

    return parser


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report import RunReport, render_report

    with open(args.file, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    # Accept both a bare run report (--report artifact) and a result
    # export that embeds one under its "report" key.
    if data.get("kind") != "run-report" and data.get("report"):
        data = data["report"]
    if data.get("kind") == "session-report":
        print(json.dumps(data, indent=2))
        return 0
    try:
        report = RunReport.from_dict(data)
    except (KeyError, ValueError) as error:
        print(f"not a run report: {error}", file=sys.stderr)
        return 2
    print(render_report(report))
    return 0


def _write_obs_artifacts(
    args: argparse.Namespace, active: "obs.Observability"
) -> None:
    """Write the --trace / --report files after the command ran."""
    from repro.obs.report import session_report
    from repro.obs.trace import write_chrome_trace

    trace_path = getattr(args, "trace", None)
    if trace_path:
        write_chrome_trace(trace_path, active.tracer.snapshot())
        print(f"wrote trace {trace_path}", file=sys.stderr)
    report_path = getattr(args, "report", None)
    if report_path:
        if active.run_count == 1 and active.last_report is not None:
            text = active.last_report.to_json()
        else:
            text = json.dumps(session_report(active), indent=2)
        with open(report_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote report {report_path}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(getattr(args, "verbose", 0))
    wants_obs = bool(
        getattr(args, "trace", None) or getattr(args, "report", None)
    ) or obs.env_requests_obs()
    if not wants_obs:
        return args.func(args)
    # Scoped so repeated main() calls (tests) never leak a context.
    with obs.enabled() as active:
        code = args.func(args)
        _write_obs_artifacts(args, active)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
