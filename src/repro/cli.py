"""Command-line interface.

The core subcommands::

    mube demo                    # the paper's theater example, end to end
    mube solve [options]         # solve a Books universe and print the answer
    mube optimizers              # compare all optimizers on one instance
    mube explain [options]       # solve and explain *why* the answer is so
    mube trace-report FILE       # analyse a --trace JSON-lines file offline
    mube runs [show ID]          # list or inspect the persistent run registry

The CLI is a thin veneer over the :class:`repro.Session` API; everything it
does can be done programmatically (see ``examples/``).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from .core import CharacteristicSpec, default_weights
from .exceptions import ReproError
from .run_context import run_scope
from .search import OPTIMIZERS, OptimizerConfig
from .session import Session, render_history, render_solution
from .telemetry import (
    NOOP,
    JsonLinesExporter,
    StderrSummaryExporter,
    Telemetry,
)
from .workload import generate_books_universe, theater_universe


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for the ``mube`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        telemetry = telemetry_from_args(args)
    except OSError as exc:
        print(f"error: cannot open trace file: {exc}", file=sys.stderr)
        return 2
    try:
        with run_scope(telemetry=telemetry):
            return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        telemetry.close()


def add_telemetry_args(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--trace`` / ``--stats`` telemetry flags."""
    parser.add_argument(
        "--trace", metavar="FILE",
        help="write a JSON-lines span trace (one span per line) to FILE",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print a telemetry summary (span timings, counters) to stderr",
    )


def telemetry_from_args(args: argparse.Namespace) -> Telemetry:
    """A tracer matching the telemetry flags (the shared no-op if absent)."""
    exporters = []
    if getattr(args, "trace", None):
        exporters.append(JsonLinesExporter(args.trace))
    if getattr(args, "stats", False):
        exporters.append(StderrSummaryExporter())
    if not exporters:
        return NOOP
    return Telemetry(exporters=exporters)


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="mube",
        description="µBE: user guided source selection and schema mediation",
    )
    sub = parser.add_subparsers(dest="command")

    demo = sub.add_parser("demo", help="run the theater-tickets demo")
    demo.add_argument("--seed", type=int, default=0)
    add_telemetry_args(demo)
    demo.set_defaults(handler=run_demo)

    solve = sub.add_parser("solve", help="solve a synthetic Books universe")
    solve.add_argument("--sources", type=int, default=200, help="universe size")
    solve.add_argument("--choose", type=int, default=10, help="budget m")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--theta", type=float, default=0.65)
    solve.add_argument(
        "--optimizer", choices=sorted(OPTIMIZERS), default="tabu"
    )
    solve.add_argument("--iterations", type=int, default=60)
    solve.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="run a portfolio of N workers across N processes "
             "(1 = in-process portfolio; default: single sequential solve)",
    )
    solve.add_argument(
        "--portfolio", metavar="SPEC",
        help="portfolio spec like 'tabu:4,local:2,annealing:2' "
             "(default: seeded restarts of --optimizer)",
    )
    solve.add_argument(
        "--stop-quality", type=float, default=None, metavar="Q",
        help="early-stop the portfolio once any worker reaches quality Q",
    )
    solve.add_argument(
        "--checkpoint", metavar="FILE",
        help="write best-so-far snapshots to FILE after every worker; "
             "if FILE already exists, resume the solve from it",
    )
    solve.add_argument(
        "--worker-timeout", type=float, default=None, metavar="SECONDS",
        help="per-worker wall-clock budget; overrunning workers are "
             "recorded as timed out (and retried, with --retries)",
    )
    solve.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="re-run failed or timed-out workers up to N extra times "
             "(deterministic: a retry re-runs the identical spec)",
    )
    solve.add_argument(
        "--explain", metavar="FILE",
        help="also write a provenance report to FILE "
             "(.json → JSON, .md → markdown, otherwise text)",
    )
    add_telemetry_args(solve)
    solve.set_defaults(handler=run_solve)

    explain = sub.add_parser(
        "explain",
        help="solve a Books universe and explain why the answer is what it is",
    )
    explain.add_argument("--sources", type=int, default=60)
    explain.add_argument("--choose", type=int, default=8)
    explain.add_argument("--seed", type=int, default=0)
    explain.add_argument("--theta", type=float, default=0.65)
    explain.add_argument(
        "--optimizer", choices=sorted(OPTIMIZERS), default="tabu"
    )
    explain.add_argument("--iterations", type=int, default=40)
    explain.add_argument(
        "--format", choices=["text", "markdown", "json"], default="text"
    )
    explain.add_argument("--out", help="write the report here instead of stdout")
    add_telemetry_args(explain)
    explain.set_defaults(handler=run_explain)

    trace_report = sub.add_parser(
        "trace-report",
        help="reconstruct the span tree and timings from a --trace file",
    )
    trace_report.add_argument("trace_file", help="JSON-lines trace file")
    trace_report.add_argument(
        "--tree", action="store_true", help="also print the span tree"
    )
    trace_report.add_argument(
        "--max-depth", type=int, default=3,
        help="span-tree depth limit (with --tree)",
    )
    trace_report.add_argument(
        "--chrome", metavar="FILE",
        help="also export the span tree as Chrome Trace Event JSON "
             "(open in chrome://tracing or ui.perfetto.dev)",
    )
    trace_report.set_defaults(handler=run_trace_report)

    runs = sub.add_parser(
        "runs",
        help="list the persistent run registry (.mube/runs.jsonl)",
    )
    runs.add_argument(
        "--path", metavar="FILE",
        help="registry file (default: $MUBE_RUNS_PATH or .mube/runs.jsonl)",
    )
    runs.add_argument(
        "--limit", type=int, default=20, metavar="N",
        help="show only the newest N records (default 20; 0 = all)",
    )
    runs.add_argument(
        "--status", choices=["ok", "failed"],
        help="only records with this final status",
    )
    runs.add_argument(
        "--contains", metavar="TEXT", dest="command_filter",
        help="only records whose command contains TEXT",
    )
    runs.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the records as a JSON array instead of a table",
    )
    runs.set_defaults(handler=run_runs)
    runs_sub = runs.add_subparsers(dest="runs_command")
    runs_show = runs_sub.add_parser(
        "show", help="render one run record (per-worker table, counters)"
    )
    runs_show.add_argument(
        "run_id", help="run id, or any unique prefix of one"
    )
    runs_show.add_argument(
        "--path", metavar="FILE",
        help="registry file (default: $MUBE_RUNS_PATH or .mube/runs.jsonl)",
    )
    runs_show.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the record as JSON instead of the rendered report",
    )
    runs_show.set_defaults(handler=run_runs_show)

    compare = sub.add_parser(
        "optimizers", help="compare all optimizers on one instance"
    )
    compare.add_argument("--sources", type=int, default=100)
    compare.add_argument("--choose", type=int, default=10)
    compare.add_argument("--seed", type=int, default=0)
    add_telemetry_args(compare)
    compare.set_defaults(handler=run_optimizers)

    discover = sub.add_parser(
        "discover",
        help="search a mixed multi-domain catalog, then integrate the hits",
    )
    discover.add_argument("query", nargs="+", help="search keywords")
    discover.add_argument("--per-domain", type=int, default=60)
    discover.add_argument("--hits", type=int, default=25)
    discover.add_argument("--choose", type=int, default=8)
    discover.add_argument("--seed", type=int, default=0)
    discover.set_defaults(handler=run_discover)

    query = sub.add_parser(
        "query",
        help="solve a Books universe, then execute queries against it",
    )
    query.add_argument("--sources", type=int, default=80)
    query.add_argument("--choose", type=int, default=8)
    query.add_argument("--queries", type=int, default=6)
    query.add_argument("--seed", type=int, default=0)
    query.set_defaults(handler=run_query)

    interactive = sub.add_parser(
        "interactive",
        help="drive a session with line commands (the Figure-4 UI, in text)",
    )
    interactive.add_argument("--sources", type=int, default=100)
    interactive.add_argument("--choose", type=int, default=8)
    interactive.add_argument("--seed", type=int, default=0)
    interactive.set_defaults(handler=run_interactive)

    catalog = sub.add_parser(
        "catalog",
        help="generate a universe catalog, save/inspect it as JSON",
    )
    catalog.add_argument("--sources", type=int, default=100)
    catalog.add_argument("--seed", type=int, default=0)
    catalog.add_argument(
        "--domain", choices=["books", "airfares", "automobiles"],
        default="books",
    )
    catalog.add_argument("--out", help="write the catalog JSON here")
    catalog.add_argument(
        "--inspect", help="describe an existing catalog JSON instead"
    )
    catalog.set_defaults(handler=run_catalog)

    figures = sub.add_parser(
        "figures",
        help="render a pytest-benchmark JSON report as ASCII figures",
    )
    figures.add_argument("report", help="path to --benchmark-json output")
    figures.set_defaults(handler=run_figures)

    serve = sub.add_parser(
        "serve",
        help="run the long-lived multi-tenant solve service (HTTP)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default %(default)s)"
    )
    serve.add_argument(
        "--port", type=int, default=8765,
        help="bind port, 0 for ephemeral (default %(default)s)",
    )
    serve.add_argument(
        "--universe", action="append", metavar="SPEC",
        help="universe to load at startup: 'books[:N[:SEED]]' or "
             "'theater[:SEED]'; repeatable (default: books:120:0)",
    )
    serve.add_argument(
        "--ttl", type=float, default=1800.0, metavar="SECONDS",
        help="idle session time-to-live (default %(default)ss)",
    )
    serve.add_argument(
        "--max-sessions", type=int, default=256,
        help="hard cap on live sessions (default %(default)s)",
    )
    serve.add_argument(
        "--jobs", type=int, default=1,
        help="default worker count for async solve jobs (default %(default)s)",
    )
    serve.add_argument(
        "--job-dir", default=".mube/jobs",
        help="durable job store: checkpoints + manifests (default %(default)s)",
    )
    add_telemetry_args(serve)
    serve.set_defaults(handler=run_serve)

    return parser


def run_demo(args: argparse.Namespace) -> int:
    """The motivating example: integrate theater-ticket sources."""
    universe = theater_universe(seed=args.seed)
    specs = (
        CharacteristicSpec("latency", "latency_ms", higher_is_better=False),
        CharacteristicSpec("fee", "fee", higher_is_better=False),
    )
    session = Session(
        universe,
        max_sources=6,
        theta=0.5,
        characteristic_qefs=specs,
        optimizer_config=OptimizerConfig(max_iterations=60, seed=args.seed),
    )
    print("== iteration 1: unconstrained ==")
    first = session.solve()
    print(render_solution(first.solution, universe))

    print()
    print("== iteration 2: bridge 'keyword' with 'search term' ==")
    session.require_match(
        [("londontheatre.co.uk", "keyword"), ("canadiantheatre.com", "search term")]
    )
    second = session.solve()
    print(render_solution(second.solution, universe))
    print()
    print(render_history(session.history))
    return 0


def run_solve(args: argparse.Namespace) -> int:
    """Solve one Books instance and print the solution."""
    workload = generate_books_universe(n_sources=args.sources, seed=args.seed)
    spec = CharacteristicSpec("mttf", "mttf")
    session = Session(
        workload.universe,
        max_sources=args.choose,
        theta=args.theta,
        weights=default_weights([spec]),
        characteristic_qefs=[spec],
        optimizer=args.optimizer,
        optimizer_config=OptimizerConfig(
            max_iterations=args.iterations, seed=args.seed
        ),
    )
    iteration = session.solve(
        explain=bool(args.explain),
        jobs=args.jobs,
        portfolio=args.portfolio,
        stop_quality=args.stop_quality,
        checkpoint=args.checkpoint,
        worker_timeout=args.worker_timeout,
        retries=args.retries,
    )
    print(render_solution(iteration.solution, workload.universe))
    stats = iteration.result.stats
    portfolio = iteration.result.portfolio
    label = args.optimizer if portfolio is None else portfolio.winner.label
    print(
        f"\n{label}: {stats.iterations} iterations, "
        f"{stats.evaluations} evaluations, {stats.elapsed_seconds:.2f}s, "
        f"match memo {stats.match_memo_hits}h/{stats.match_memo_misses}m"
    )
    if portfolio is not None:
        from .search.parallel import render_portfolio

        print()
        print(render_portfolio(portfolio))
    if args.explain:
        fmt = _format_for_path(args.explain)
        report = _render_explanation(
            session.explain(), workload.universe, fmt
        )
        with open(args.explain, "w", encoding="utf-8") as stream:
            stream.write(report)
        print(f"wrote {fmt} explanation to {args.explain}")
    if args.trace:
        print(f"wrote span trace to {args.trace}")
    return 0


def run_explain(args: argparse.Namespace) -> int:
    """Solve one Books instance and print the full provenance report."""
    workload = generate_books_universe(n_sources=args.sources, seed=args.seed)
    spec = CharacteristicSpec("mttf", "mttf")
    session = Session(
        workload.universe,
        max_sources=args.choose,
        theta=args.theta,
        weights=default_weights([spec]),
        characteristic_qefs=[spec],
        optimizer=args.optimizer,
        optimizer_config=OptimizerConfig(
            max_iterations=args.iterations, seed=args.seed
        ),
    )
    session.solve(explain=True)
    report = _render_explanation(
        session.explain(), workload.universe, args.format
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as stream:
            stream.write(report)
        print(f"wrote {args.format} explanation to {args.out}")
    else:
        print(report, end="")
    return 0


def run_trace_report(args: argparse.Namespace) -> int:
    """Analyse a ``--trace`` JSON-lines file offline."""
    from .telemetry import render_trace_report

    import json

    try:
        report = render_trace_report(
            args.trace_file, tree=args.tree, max_depth=args.max_depth
        )
    except OSError as exc:
        print(f"error: cannot read trace file: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(
            f"error: {args.trace_file} is not a JSON-lines trace file "
            f"({exc})",
            file=sys.stderr,
        )
        return 2
    print(report, end="")
    if args.chrome:
        from .telemetry.chrome_trace import write_chrome_trace

        try:
            count = write_chrome_trace(args.trace_file, args.chrome)
        except OSError as exc:
            print(
                f"error: cannot write chrome trace: {exc}", file=sys.stderr
            )
            return 2
        print(f"wrote {count} chrome trace events to {args.chrome}")
    return 0


def _registry_for_args(args: argparse.Namespace):
    """The run registry named by ``--path`` / env / the default location."""
    import os

    from .telemetry.observatory import (
        DEFAULT_RUNS_PATH,
        RUNS_PATH_ENV,
        RunRegistry,
    )

    path = (
        getattr(args, "path", None)
        or os.environ.get(RUNS_PATH_ENV)
        or DEFAULT_RUNS_PATH
    )
    return RunRegistry(path)


def run_runs(args: argparse.Namespace) -> int:
    """List the run registry, newest last."""
    from .telemetry.observatory import render_runs_table

    registry = _registry_for_args(args)
    records = registry.load(
        limit=args.limit if args.limit else None,
        status=args.status,
        command=args.command_filter,
    )
    if args.as_json:
        import json

        print(json.dumps([r.to_dict() for r in records], indent=2))
        return 0
    if not records and not registry.path.exists():
        print(f"no run registry at {registry.path} (nothing recorded yet)")
        return 0
    print(render_runs_table(records))
    if registry.skipped_lines:
        print(
            f"({registry.skipped_lines} malformed line(s) skipped)",
            file=sys.stderr,
        )
    return 0


def run_runs_show(args: argparse.Namespace) -> int:
    """Render one run record in full."""
    from .telemetry.observatory import render_run_record

    registry = _registry_for_args(args)
    record = registry.find(args.run_id)
    if record is None:
        print(
            f"error: no run matching {args.run_id!r} in {registry.path}",
            file=sys.stderr,
        )
        return 1
    if args.as_json:
        import json

        print(json.dumps(record.to_dict(), indent=2))
        return 0
    print(render_run_record(record))
    return 0


def _format_for_path(path: str) -> str:
    """Report format implied by a ``--explain FILE`` suffix."""
    if path.endswith(".json"):
        return "json"
    if path.endswith(".md"):
        return "markdown"
    return "text"


def _render_explanation(explanation, universe, fmt: str) -> str:
    from .explain import (
        render_explanation_json,
        render_explanation_markdown,
        render_explanation_text,
    )

    if fmt == "json":
        return render_explanation_json(explanation)
    if fmt == "markdown":
        return render_explanation_markdown(explanation, universe)
    return render_explanation_text(explanation, universe)


def run_optimizers(args: argparse.Namespace) -> int:
    """Run every optimizer on the same instance and print a table."""
    workload = generate_books_universe(n_sources=args.sources, seed=args.seed)
    spec = CharacteristicSpec("mttf", "mttf")
    print(f"{'optimizer':<12} {'Q':>8} {'evals':>7} {'seconds':>8}")
    for name in sorted(OPTIMIZERS):
        if name == "exhaustive":
            continue  # intractable at CLI scales
        session = Session(
            workload.universe,
            max_sources=args.choose,
            weights=default_weights([spec]),
            characteristic_qefs=[spec],
            optimizer=name,
            optimizer_config=OptimizerConfig(
                max_iterations=60, seed=args.seed
            ),
        )
        iteration = session.solve()
        stats = iteration.result.stats
        print(
            f"{name:<12} {iteration.solution.quality:>8.4f} "
            f"{stats.evaluations:>7} {stats.elapsed_seconds:>8.2f}"
        )
    return 0


def run_discover(args: argparse.Namespace) -> int:
    """Discovery → integration over a mixed catalog (paper §1 workflow)."""
    from collections import Counter

    from .workload import SourceSearchEngine, build_catalog

    catalog = build_catalog(
        sources_per_domain=args.per_domain, seed=args.seed
    )
    engine = SourceSearchEngine(catalog.universe)
    query = " ".join(args.query)
    hits = engine.search(query, limit=args.hits)
    if not hits:
        print(f"no sources match {query!r}")
        return 1
    domains = Counter(catalog.domain_of[hit.source_id] for hit in hits)
    print(
        f"{len(hits)} hits for {query!r} across "
        f"{len(catalog.universe)} sources — by domain: {dict(domains)}"
    )
    universe = engine.subuniverse(query, limit=args.hits)
    session = Session(
        universe,
        max_sources=min(args.choose, len(universe)),
        optimizer_config=OptimizerConfig(max_iterations=40, seed=args.seed),
    )
    iteration = session.solve()
    print()
    print(render_solution(iteration.solution, universe))
    picked = Counter(
        catalog.domain_of[sid] for sid in iteration.solution.selected
    )
    print(f"\nselected sources by domain: {dict(picked)}")
    return 0


def run_query(args: argparse.Namespace) -> int:
    """Solve, build the integration system, and execute queries."""
    from .execution import (
        IntegrationSystem,
        QueryWorkloadConfig,
        full_answer_count,
        random_queries,
    )
    from .workload import DataConfig

    workload = generate_books_universe(
        n_sources=args.sources,
        seed=args.seed,
        data_config=DataConfig(
            pool_size=100_000, min_cardinality=500, max_cardinality=20_000
        ),
        keep_tuples=True,
    )
    session = Session(
        workload.universe,
        max_sources=args.choose,
        optimizer_config=OptimizerConfig(max_iterations=40, seed=args.seed),
    )
    solution = session.solve().solution
    print(render_solution(solution, workload.universe))
    system = IntegrationSystem.from_solution(workload.universe, solution)
    queries = random_queries(
        solution.schema, args.queries, QueryWorkloadConfig(seed=args.seed)
    )
    print(f"\n{'query':<40} {'answer':>7} {'dup%':>6} {'complete':>9} "
          f"{'cost':>8}")
    for query in queries:
        result = system.execute(query)
        full = full_answer_count(workload.universe, query)
        print(
            f"{query.describe():<40} {result.answer_count:>7} "
            f"{result.duplicate_ratio:>6.1%} "
            f"{result.completeness_against(full):>8.0%} "
            f"{result.cost.total_ms:>6.0f}ms"
        )
    return 0


def run_catalog(args: argparse.Namespace) -> int:
    """Generate/save or inspect a universe catalog."""
    from .io import load_universe, save_universe
    from .workload import describe_universe, generate_universe, get_domain
    from .workload import render_stats

    if args.inspect:
        universe = load_universe(args.inspect)
        print(render_stats(describe_universe(universe)))
        return 0
    workload = generate_universe(
        domain=get_domain(args.domain),
        n_sources=args.sources,
        seed=args.seed,
    )
    print(render_stats(describe_universe(workload.universe)))
    if args.out:
        save_universe(workload.universe, args.out)
        print(f"\nwrote {args.out}")
    return 0


def run_figures(args: argparse.Namespace) -> int:
    """Render benchmark JSON as the paper's figures in ASCII."""
    from .analysis import render_figures

    print(render_figures(args.report))
    return 0


def run_interactive(args: argparse.Namespace) -> int:
    """Start the interactive console over a Books universe."""
    from .session import interactive_loop

    workload = generate_books_universe(
        n_sources=args.sources, seed=args.seed
    )
    spec = CharacteristicSpec("mttf", "mttf")
    session = Session(
        workload.universe,
        max_sources=args.choose,
        weights=default_weights([spec]),
        characteristic_qefs=[spec],
        optimizer_config=OptimizerConfig(max_iterations=40, seed=args.seed),
    )
    interactive_loop(session)
    return 0


def run_serve(args: argparse.Namespace) -> int:
    """Run the resident multi-tenant solve service until SIGINT/SIGTERM."""
    import signal
    import threading

    from .serve import ServeApp, ServeHTTPServer, load_universe

    universes = {}
    for spec in args.universe or ["books:120:0"]:
        resident = load_universe(spec)
        universes[resident.name] = resident
        print(
            f"mube serve: loaded universe {resident.name} "
            f"({len(resident.universe)} sources, "
            f"{len(resident.universe.attribute_names())} attributes)",
            flush=True,
        )
    app = ServeApp(
        universes,
        job_dir=args.job_dir,
        ttl_seconds=args.ttl,
        max_sessions=args.max_sessions,
        default_jobs=args.jobs,
    )
    with app:
        server = ServeHTTPServer((args.host, args.port), app)
        host, port = server.server_address[:2]
        degraded = [tier for tier, ok in app.tiers.items() if not ok]
        if degraded:
            print(
                f"mube serve: degraded tiers: {', '.join(sorted(degraded))}",
                flush=True,
            )
        print(f"mube serve: listening on http://{host}:{port}", flush=True)

        def _stop(signum, frame):  # noqa: ARG001 - signal handler shape
            # shutdown() must come from another thread: serve_forever's
            # poll loop is the one being interrupted.
            threading.Thread(target=server.shutdown, daemon=True).start()

        signal.signal(signal.SIGTERM, _stop)
        signal.signal(signal.SIGINT, _stop)
        try:
            server.serve_forever()
        finally:
            server.server_close()
    print("mube serve: shutdown complete", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
