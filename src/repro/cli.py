"""Command-line interface.

Five subcommands, mirroring the workflows the paper describes::

    python -m repro check FILE        analyse spec file(s): completeness
                                      + consistency; nonzero exit on NO
    python -m repro show FILE         pretty-print the specification(s)
    python -m repro prompts FILE      list the missing-case prompts
    python -m repro eval FILE TERM    normalise TERM under the (last)
                                      specification in FILE
    python -m repro trace FILE TERM   normalise TERM with the span tracer
                                      on, emitting an OTLP/JSON trace and
                                      a per-rule self-time profile
    python -m repro trace-diff A B    compare two OTLP/JSON traces: per-rule
                                      firing-count and self-time deltas
    python -m repro compile FILE      scope/type-check a Block program
                                      [--dialect plain|knows]
                                      [--backend concrete|native|spec]

``--metrics-out FILE`` (on ``check``, ``eval``, ``trace`` and ``prove``)
writes the process-wide metrics snapshot — every engine's counters plus
the intern-table and rule-index substrate counters — as JSON.

Spec files contain one or more ``type ...`` blocks in the DSL (see
README); later blocks may use earlier ones.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis import lint_specification, prompts_for
from repro.report import banner, format_specification
from repro.spec.parser import parse_specifications, parse_term
from repro.rewriting import BACKENDS, RewriteEngine


def _load_specs(path: str):
    with open(path) as handle:
        return parse_specifications(handle.read())


def _dump_metrics(path: Optional[str]) -> None:
    """Write the process-wide aggregated metrics snapshot as JSON."""
    if not path:
        return
    import json

    from repro.obs import aggregate_snapshot

    with open(path, "w") as handle:
        json.dump(aggregate_snapshot(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def cmd_check(args: argparse.Namespace) -> int:
    status = 0
    for spec in _load_specs(args.file):
        report = lint_specification(spec, with_coverage=args.coverage)
        print(banner(f"{spec.name}"))
        print(report.completeness)
        print()
        print(report.consistency)
        if report.coverage is not None:
            print()
            print(report.coverage)
        if not report.clean:
            status = 1
    _dump_metrics(args.metrics_out)
    return status


def cmd_show(args: argparse.Namespace) -> int:
    for spec in _load_specs(args.file):
        print(format_specification(spec))
        print()
    return 0


def cmd_prompts(args: argparse.Namespace) -> int:
    status = 0
    for spec in _load_specs(args.file):
        prompts = prompts_for(spec)
        if prompts:
            status = 1
            print(f"{spec.name}:")
            for prompt in prompts:
                print(f"  {prompt}")
        else:
            print(f"{spec.name}: sufficiently complete, nothing to supply")
    return status


def _eval_pool(args: argparse.Namespace, engine: RewriteEngine):
    """The :class:`~repro.parallel.ShardPool` for ``eval --workers N``,
    or None for in-process evaluation: no ``--workers`` (or N <= 1), or
    rules the wire format cannot carry, which is said on stderr."""
    if args.workers is None or args.workers <= 1:
        return None
    from repro.parallel import ShardPool, WireError

    try:
        return ShardPool(
            engine.rules,
            args.workers,
            backend=engine.backend,
            budget=engine.budget,
            cache_size=engine.cache_size,
        )
    except WireError as exc:
        print(
            f"-- rules cannot be sent to worker processes ({exc}); "
            "evaluating in-process",
            file=sys.stderr,
        )
        return None


def cmd_eval(args: argparse.Namespace) -> int:
    from contextlib import nullcontext

    from repro.runtime import EvaluationBudget

    specs = _load_specs(args.file)
    spec = specs[-1]
    terms = [parse_term(text, spec) for text in args.term]
    budget = EvaluationBudget(
        fuel=args.fuel if args.fuel is not None else 200_000,
        deadline=args.deadline,
        max_intern_growth=args.max_intern_growth,
    )
    engine = RewriteEngine.for_specification(
        spec, backend=args.backend, budget=budget
    )
    pool = _eval_pool(args, engine)
    evaluator = pool or engine
    failed = False
    with pool or nullcontext():
        if args.resilient:
            for outcome in evaluator.normalize_many_outcomes(terms):
                if outcome.ok:
                    print(outcome.term)
                else:
                    failed = True
                    print(f"-- {outcome}", file=sys.stderr)
                    for step in outcome.trace:
                        print(f"--   cycle: {step}", file=sys.stderr)
        else:
            for result in evaluator.normalize_many(terms):
                print(result)
        if args.stats:
            stats = engine.stats
            line = (
                f"-- {stats.steps} step(s), "
                f"{stats.rule_firings} rule firing(s), "
                f"{stats.builtin_firings} builtin call(s)"
            )
            if pool is not None:
                shipped = pool.metrics_snapshot()
                firings = sum(
                    shipped["families"]
                    .get("engine.rule_firings", {})
                    .values()
                )
                steps = shipped["counters"].get("engine.steps", 0)
                line += (
                    f" in-process; workers shipped {steps} step(s), "
                    f"{firings} rule firing(s)"
                )
            print(line, file=sys.stderr)
        _dump_metrics(args.metrics_out)
    if args.resilient and failed:
        return 3
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.obs import Tracer, firing_counts, rule_profile, tracing
    from repro.obs.otlp import to_otlp
    from repro.report import format_rule_profile
    from repro.rewriting.engine import RewriteLimitError
    from repro.runtime import EvaluationBudget

    specs = _load_specs(args.file)
    spec = specs[-1]
    term = parse_term(args.term, spec)
    budget = EvaluationBudget(
        fuel=args.fuel if args.fuel is not None else 200_000
    )
    engine = RewriteEngine.for_specification(
        spec, backend=args.backend, budget=budget
    )
    failure = None
    tracer = Tracer(sample=args.sample)
    with tracing(tracer):
        try:
            result = engine.normalize(term)
        except RewriteLimitError as exc:
            failure = exc
    document = to_otlp(
        tracer.spans, tracer.trace_id, resource={"service.name": "repro-cli"}
    )
    rendered = json.dumps(document, indent=2)
    if args.out is None:
        print(rendered)
    else:
        with open(args.out, "w") as handle:
            handle.write(rendered + "\n")
    if failure is not None:
        print(f"-- {failure}", file=sys.stderr)
    else:
        print(f"-- normal form: {result}", file=sys.stderr)
    counts = firing_counts(tracer.spans)
    print(
        f"-- {len(tracer.spans)} span(s), "
        f"{sum(counts.values())} rule firing(s) across "
        f"{len(counts)} rule(s)",
        file=sys.stderr,
    )
    profile = rule_profile(tracer.spans)
    if profile:
        print(format_rule_profile(profile, limit=args.top), file=sys.stderr)
    _dump_metrics(args.metrics_out)
    return 3 if failure is not None else 0


def cmd_trace_diff(args: argparse.Namespace) -> int:
    import json

    from repro.obs import profile_diff
    from repro.obs.otlp import check_otlp_file, read_otlp_spans
    from repro.report import format_profile_diff

    sides = []
    for path in (args.trace_a, args.trace_b):
        docs, problems = check_otlp_file(path)
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        if problems:
            return 2
        sides.append([span for doc in docs for span in read_otlp_spans(doc)])
    diff = profile_diff(*sides)
    if args.json:
        print(json.dumps(diff, indent=2))
    else:
        print(f"-- {args.trace_b} minus {args.trace_a}", file=sys.stderr)
        print(format_profile_diff(diff, limit=args.top))
    moved = any(row["firings_delta"] for row in diff)
    return 1 if moved and args.fail_on_firing_delta else 0


def cmd_compile(args: argparse.Namespace) -> int:
    from repro.compiler import (
        ConcreteBackend,
        KnowsConcreteBackend,
        KnowsSpecBackend,
        NativeBackend,
        SpecBackend,
        analyze_source,
    )

    with open(args.file) as handle:
        source = handle.read()
    knows = args.dialect == "knows"
    backends = {
        ("concrete", False): ConcreteBackend,
        ("native", False): NativeBackend,
        ("spec", False): SpecBackend,
        ("concrete", True): KnowsConcreteBackend,
        ("spec", True): KnowsSpecBackend,
    }
    factory = backends.get((args.backend, knows))
    if factory is None:
        print(
            f"backend {args.backend!r} is not available for the "
            f"{args.dialect} dialect",
            file=sys.stderr,
        )
        return 2
    result = analyze_source(source, factory(), args.dialect)
    for diagnostic in result.diagnostics.diagnostics:
        print(diagnostic)
    if not result.diagnostics.diagnostics:
        print("clean")
    print(
        f"-- {result.stats.total} symbol-table operation(s)",
        file=sys.stderr,
    )
    return 0 if result.ok else 1


def cmd_run(args: argparse.Namespace) -> int:
    from repro.compiler.interp import BlockRuntimeError, run_source
    from repro.compiler.vm import compile_and_run

    with open(args.file) as handle:
        source = handle.read()
    runner = compile_and_run if args.engine == "vm" else run_source
    try:
        result = runner(source)
    except BlockRuntimeError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    for name in sorted(result.globals):
        print(f"{name} = {result.globals[name]}")
    print(f"-- {result.steps} step(s)", file=sys.stderr)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import threading

    from repro.serve import ReproServer, ServeLimits

    specs = _load_specs(args.file)
    limits = ServeLimits(
        max_fuel=args.max_fuel,
        max_deadline=args.max_deadline,
        max_batch=args.max_batch,
        max_inflight=args.max_inflight,
        queue_depth=args.queue_depth,
        queue_timeout=args.queue_timeout,
    )
    server = ReproServer(
        specs,
        backend=args.backend,
        workers=args.workers,
        limits=limits,
        host=args.host,
        port=args.port,
        unix_socket=args.unix_socket,
        trace_sample=args.trace_sample,
        otlp_path=args.otlp_out,
        otlp_endpoint=args.otlp_endpoint,
        access_log=args.access_log,
    )
    server.start()
    host, port = server.address
    where = host if args.unix_socket else f"http://{host}:{port}"
    names = ", ".join(sorted(server.sessions))
    print(f"serving {names} on {where}", flush=True)
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def cmd_prove(args: argparse.Namespace) -> int:
    from repro.verify.client import parse_client_program, verify_client

    specs = _load_specs(args.specfile)
    with open(args.programfile) as handle:
        source = handle.read()
    program = parse_client_program(source, *specs)
    report = verify_client(program)
    print(report)
    _dump_metrics(args.metrics_out)
    return 0 if report.all_proved else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Algebraic specification of abstract data types "
        "(Guttag 1977).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    metrics_help = (
        "write the process-wide metrics snapshot (engine counters, "
        "intern/memo hit rates, rule firings) to FILE as JSON"
    )

    check = commands.add_parser("check", help="analyse a spec file")
    check.add_argument("file")
    check.add_argument(
        "--coverage",
        action="store_true",
        help="also report per-axiom firing counts (dead-axiom lint)",
    )
    check.add_argument("--metrics-out", default=None, help=metrics_help)
    check.set_defaults(run=cmd_check)

    show = commands.add_parser("show", help="pretty-print a spec file")
    show.add_argument("file")
    show.set_defaults(run=cmd_show)

    prompts = commands.add_parser(
        "prompts", help="list missing-case prompts for a spec file"
    )
    prompts.add_argument("file")
    prompts.set_defaults(run=cmd_prompts)

    evaluate = commands.add_parser(
        "eval", help="normalise one or more terms under a spec file"
    )
    evaluate.add_argument("file")
    evaluate.add_argument(
        "term",
        nargs="+",
        help="term(s) to normalise; several terms evaluate as one batch",
    )
    evaluate.add_argument(
        "--stats", action="store_true", help="print rewrite statistics"
    )
    evaluate.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="shard the batch across a pool of N worker processes "
        "(default: in-process serial evaluation; rules the wire format "
        "cannot carry are evaluated in-process, said on stderr)",
    )
    evaluate.add_argument(
        "--backend",
        choices=BACKENDS,
        default="interpreted",
        help="evaluation backend (all compute the same normal forms)",
    )
    evaluate.add_argument(
        "--fuel", type=int, default=None, help="rewrite-step budget"
    )
    evaluate.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="wall-clock budget in seconds",
    )
    evaluate.add_argument(
        "--max-intern-growth",
        type=int,
        default=None,
        help="cap on new term nodes interned during evaluation",
    )
    evaluate.add_argument(
        "--resilient",
        action="store_true",
        help="report a structured outcome (exit 3) instead of an error "
        "when the budget runs out; divergence prints its cycle",
    )
    evaluate.add_argument("--metrics-out", default=None, help=metrics_help)
    evaluate.set_defaults(run=cmd_eval)

    trace = commands.add_parser(
        "trace",
        help="normalise a term with the span tracer on, emitting an "
        "OTLP/JSON trace and a per-rule self-time profile",
    )
    trace.add_argument("file")
    trace.add_argument("term")
    trace.add_argument(
        "--backend",
        choices=BACKENDS,
        default="interpreted",
        help="evaluation backend (traces differ in shape — per-step "
        "events vs aggregated firings — but agree in counts)",
    )
    trace.add_argument(
        "--fuel", type=int, default=None, help="rewrite-step budget"
    )
    trace.add_argument(
        "--sample",
        type=float,
        default=1.0,
        help="fraction of top-level spans to record (deterministic; "
        "default 1.0 records everything)",
    )
    trace.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the trace as one OTLP/JSON document to FILE "
        "(default: stdout)",
    )
    trace.add_argument(
        "--top",
        type=int,
        default=10,
        help="rows in the per-rule self-time profile (default 10)",
    )
    trace.add_argument("--metrics-out", default=None, help=metrics_help)
    trace.set_defaults(run=cmd_trace)

    trace_diff = commands.add_parser(
        "trace-diff",
        help="compare two OTLP/JSON traces: per-rule firing-count and "
        "self-time deltas (B minus A), biggest movers first",
    )
    trace_diff.add_argument("trace_a")
    trace_diff.add_argument("trace_b")
    trace_diff.add_argument(
        "--top",
        type=int,
        default=10,
        help="rows in the delta table (default 10)",
    )
    trace_diff.add_argument(
        "--json",
        action="store_true",
        help="emit the full delta rows as JSON instead of a table",
    )
    trace_diff.add_argument(
        "--fail-on-firing-delta",
        action="store_true",
        help="exit 1 if any rule's firing count differs (backend "
        "equivalence check)",
    )
    trace_diff.set_defaults(run=cmd_trace_diff)

    run_cmd = commands.add_parser(
        "run", help="execute a Block program"
    )
    run_cmd.add_argument("file")
    run_cmd.add_argument(
        "--engine", choices=("interp", "vm"), default="vm"
    )
    run_cmd.set_defaults(run=cmd_run)

    serve = commands.add_parser(
        "serve",
        help="run the spec-serving daemon: load spec file(s) once, "
        "answer batched normalize/check/prove over HTTP",
    )
    serve.add_argument("file")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default 0 = ephemeral; the bound port is printed)",
    )
    serve.add_argument(
        "--unix-socket",
        default=None,
        metavar="PATH",
        help="listen on a unix socket instead of TCP",
    )
    serve.add_argument(
        "--backend",
        choices=BACKENDS,
        default="codegen",
        help="rewrite engine for every session (default: codegen; "
        "interpreted is the reference engine)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="shard batch requests across N self-healing worker "
        "processes (default: in-process serial evaluation)",
    )
    serve.add_argument(
        "--max-fuel",
        type=int,
        default=200_000,
        help="ceiling on per-request fuel budgets",
    )
    serve.add_argument(
        "--max-deadline",
        type=float,
        default=30.0,
        help="ceiling on per-request deadlines, seconds",
    )
    serve.add_argument(
        "--max-batch", type=int, default=256, help="terms per request"
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=4,
        help="requests evaluating concurrently before queueing starts",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=16,
        help="queued requests beyond which load is shed with 429",
    )
    serve.add_argument(
        "--queue-timeout",
        type=float,
        default=5.0,
        help="seconds a queued request waits before being shed with 503",
    )
    serve.add_argument(
        "--trace-sample",
        type=float,
        default=None,
        metavar="FRACTION",
        help="fraction of requests to trace (0.0-1.0; default 1.0 when "
        "an OTLP output is configured, otherwise tracing is off)",
    )
    serve.add_argument(
        "--otlp-out",
        default=None,
        metavar="FILE",
        help="append one OTLP/JSON document per traced request to FILE",
    )
    serve.add_argument(
        "--otlp-endpoint",
        default=None,
        metavar="URL",
        help="POST each traced request's OTLP/JSON document to URL "
        "(an OpenTelemetry collector's /v1/traces)",
    )
    serve.add_argument(
        "--access-log",
        default=None,
        metavar="FILE",
        help="append one JSON line per request: status, shed reason, "
        "queue/eval/total timings, trace id",
    )
    serve.set_defaults(run=cmd_serve)

    prove = commands.add_parser(
        "prove",
        help="verify a client program's assertions from the axioms alone",
    )
    prove.add_argument("specfile")
    prove.add_argument("programfile")
    prove.add_argument("--metrics-out", default=None, help=metrics_help)
    prove.set_defaults(run=cmd_prove)

    compile_ = commands.add_parser(
        "compile", help="scope/type-check a Block program"
    )
    compile_.add_argument("file")
    compile_.add_argument(
        "--dialect", choices=("plain", "knows"), default="plain"
    )
    compile_.add_argument(
        "--backend",
        choices=("concrete", "native", "spec"),
        default="concrete",
    )
    compile_.set_defaults(run=cmd_compile)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # fault-boundary: CLI surfaces errors, not tracebacks
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
