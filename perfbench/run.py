"""The repo's benchmark: one command, three workloads, checked answers.

    python3 perfbench/run.py --workload serve-small --seed 1 --seconds 20 --trace 0

Workloads (see README.md beside this file for why each exists):

* ``serve-small`` — the ``repro serve`` daemon, 2 keep-alive
  connections in a closed loop, batches of 1-8 shallow observations;
* ``serve-batch`` — the same daemon, 1 connection, batches of 32 deep
  observations;
* ``verify`` — in-process library calls: completeness/consistency of
  axiom deletions, client-program proofs, representation verification.

``--trace 0`` measures the end-to-end metrics with nothing installed.
``--trace 1`` runs the same load twice, untraced and then with timing
wrappers around each layer's public entry points, and reports the
per-layer metrics.  The last line of stdout is the result object; the
line before it (``report {...}``) carries provenance, bases of every
rate and the latency breakdown.  Times and rates are scaled to a
reference machine speed (``speed.py``).  Exit code 1 when any answer differs
from the reference, any op failed, the pool degraded, fell back,
crashed or shed, or a process or the port outlived the teardown.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
import spans  # noqa: E402
from speed import Speed  # noqa: E402

#: ``cpus``: how many CPUs the workload keeps busy, and so how many
#: the machine-speed kernel samples at once.
WORKLOADS = {
    "serve-small": {"connections": 2, "tail_percentile": 90.0, "cpus": 2},
    "serve-batch": {"connections": 1, "tail_percentile": 90.0, "cpus": 2},
    "verify": {"tail_percentile": 98.0, "cpus": 1},
}
#: Daemon boots (serve) or fresh-interpreter imports (verify) per run.
SETUP_REPEATS = 9
#: Daemons, of the boots above, that take turns carrying a measured
#: serve run's load (a traced run boots and loads one).
DAEMONS = 3
WARMUP_SECONDS = 1.5
#: Warm-up inputs come from their own index range, so the timed inputs
#: of a seed do not depend on how far the warm-up got.
WARMUP_INDEX = 10**8

END_TO_END_UNITS = {
    "ops_per_s": "op/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER_UNITS = {
    "serve.client_ms": "ms",
    "serve.http_ms": "ms",
    "serve.admission_wait_ms": "ms",
    "serve.shed": "count",
    "spec.parse_ms": "ms",
    "parallel.wire.decode_ms": "ms",
    "parallel.wire.encode_ms": "ms",
    "parallel.wire.request_kb": "KiB",
    "parallel.pool.call_ms": "ms",
    "parallel.pool.overhead_frac": "ratio",
    "parallel.chunks_per_batch": "count",
    "parallel.serial_items": "count",
    "parallel.degradations": "count",
    "rewriting.eval_ms": "ms",
    "rewriting.steps_per_op": "count",
    "rewriting.steps_per_s": "1/s",
    "rewriting.memo_hit_rate": "ratio",
    "rewriting.memo_probes_per_op": "count",
    "rewriting.fallbacks": "count",
    "rewriting.engine_build_ms": "ms",
    "algebra.intern_hit_rate": "ratio",
    "algebra.constructions_per_op": "count",
    "analysis.completeness_ms": "ms",
    "analysis.consistency_ms": "ms",
    "verify.prove_ms": "ms",
    "verify.representation_ms": "ms",
    "verify.undecided": "count",
    "trace.ops": "count",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}
#: Counters that must not move in a healthy serve run.
HEALTH = {
    "parallel.degradations": "parallel_degradations",
    "parallel.serial_items": "parallel_serial_items",
    "engine.fallbacks": "engine_fallbacks",
    "serve.worker_crashes": "serve_worker_crashes",
    "serve.shed": "serve_shed",
}


class BenchError(RuntimeError):
    pass


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------
def percentile(values: list, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summarize(timed: dict, tail_pct: float) -> dict:
    records = timed["records"]
    if not records:
        raise BenchError("no op completed in the timed phase")
    latencies = [(end - start) * 1000.0 for start, end, *_ in records]
    failed = sum(1 for _, _, error, wrong, _ in records if error or wrong)
    kinds: dict[str, list] = {}
    for (start, end, *_, kind), ms in zip(records, latencies):
        kinds.setdefault(kind, []).append(ms)
    beyond = len(records) - math.ceil(tail_pct / 100.0 * len(records))
    speed = timed["speed"]
    scaled = [(end - start) * 1000.0 / speed.at((start + end) / 2)
              for start, end, *_ in records]
    return {
        "ops": len(records),
        "failed": failed,
        "ops_per_s": len(records) / timed["elapsed"],
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": percentile(latencies, tail_pct),
        "latency_mean_ms": statistics.fmean(latencies),
        "at_reference": {
            "ops_per_s": len(records) / speed.reference_seconds(timed["end"]),
            "latency_p50_ms": statistics.median(scaled),
            "latency_tail_ms": percentile(scaled, tail_pct),
        },
        "tail": {"percentile": tail_pct, "samples": len(records),
                 "samples_beyond": beyond, "enough": beyond >= 10},
        "errors": sorted({e for _, _, e, *_ in records if e}),
        "by_kind": {k: {"ops": len(v), "p50_ms": statistics.median(v)}
                    for k, v in sorted(kinds.items())},
    }


def provenance(args, params: dict) -> dict:
    commit, dirty = "unknown (not a git checkout)", None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, capture_output=True, text=True, timeout=10,
                check=True).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "git_commit": commit,
        "git_dirty": dirty,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": params,
    }


def scaled_setup(once, repeats: int, cpus: int) -> tuple[list, list]:
    """Run ``once`` (returning its set-up seconds) ``repeats`` times
    with a kernel sample before, between and after; returns the raw
    seconds and the seconds at the reference speed of the samples
    around each."""
    with Speed(cpus) as speed:
        speed.sample()
        raw, moments = [], []
        for _ in range(repeats):
            began = perf_counter()
            raw.append(once())
            moments.append((began + perf_counter()) / 2)
            speed.sample()
    return raw, [r / speed.at(m) for r, m in zip(raw, moments)]


# ----------------------------------------------------------------------
# serve-small / serve-batch
# ----------------------------------------------------------------------
def serve_phase(workload: str, seed: int, seconds: float, work: Path,
                setups: int, count: int, traced: bool) -> dict:
    """Boot ``setups`` daemons one after another, each timed; all but
    the last ``count`` are torn down as soon as the next boot starts.
    Load the ``count`` left in turns, tear them down.  Returns timings,
    records and ``/metrics`` before/after the timed phase."""
    import serve_load

    out = {"hygiene": [], "unclean": []}
    spans_out = work / "daemon-spans.json" if traced else None
    daemons: list = []
    boots = 0

    def stop(daemon) -> None:
        unclean, left = daemon.stop()
        out["unclean"] += unclean
        out["hygiene"] += left

    def boot() -> float:
        nonlocal boots
        if daemons and boots <= setups - count:
            stop(daemons.pop())
        boots += 1
        daemons.append(serve_load.Daemon(ROOT, work, spans_out=spans_out))
        return daemons[-1].start()

    clients = []
    cpus = WORKLOADS[workload]["cpus"]
    try:
        out["setup_raw"], out["setup"] = scaled_setup(boot, setups, cpus)
        ports = [daemon.port for daemon in daemons]
        load = serve_load.Load(ports, workload, seed,
                               WORKLOADS[workload]["connections"],
                               serve_load.TermBuilder())
        warm = load.run(WARMUP_SECONDS * count, WARMUP_INDEX)
        clients = warm["clients"]
        out["warmup_errors"] = sorted({r[2] for r in warm["records"] if r[2]})
        out["before"] = serve_load.scrape(ports)
        with Speed(cpus) as speed:
            out["timed"] = load.run(seconds, 0, clients=clients, speed=speed)
        out["speed"] = speed
        out["after"] = serve_load.scrape(ports)
        out["rss_mib"] = [daemon.rss_mib() for daemon in daemons]
        out["mismatches"] = load.mismatches
    finally:
        for client in (c for mine in clients for c in mine):
            client.close()
        for daemon in daemons:
            stop(daemon)
    if traced:
        out["daemon_spans"] = spans.load(str(spans_out))
    return out


def health(before: dict, after: dict) -> dict:
    import serve_load

    return {k: serve_load.delta(before, after, v) for k, v in HEALTH.items()}


def run_serve(args, work: Path) -> tuple[dict, dict, dict]:
    tail_pct = WORKLOADS[args.workload]["tail_percentile"]
    if not args.trace:
        phase = serve_phase(args.workload, args.seed, args.seconds, work,
                            SETUP_REPEATS, DAEMONS, traced=False)
        summary = summarize(phase["timed"], tail_pct)
        metrics = end_to_end(summary, statistics.median(phase["setup"]),
                             statistics.median(phase["rss_mib"]))
        report = {"summary": summary, "setup_samples_s": phase["setup"],
                  "setup_raw_samples_s": phase["setup_raw"],
                  "rss_mib_per_daemon": phase["rss_mib"],
                  "health": health(phase["before"], phase["after"])}
        return metrics, report, phase
    plain = serve_phase(args.workload, args.seed, args.seconds, work, 1, 1,
                        traced=False)
    recorder = trace_client()
    traced = serve_phase(args.workload, args.seed, args.seconds, work, 1, 1,
                         traced=True)
    untraced = summarize(plain["timed"], tail_pct)
    untraced_rate = untraced["at_reference"]["ops_per_s"]
    metrics, report = serve_layers(traced, recorder, untraced_rate, tail_pct)
    report["health"] = health(traced["before"], traced["after"])
    report["untraced_health"] = health(plain["before"], plain["after"])
    traced["hygiene"] += plain["hygiene"]
    traced["unclean"] += plain["unclean"]
    traced["mismatches"] += plain["mismatches"]
    traced["warmup_errors"] += plain["warmup_errors"]
    traced["untraced_failed"] = untraced["failed"]
    return metrics, report, traced


def trace_client():
    """Wrap ``ServeClient.normalize`` as the op root.  Its id is
    ``<local port>:<n>`` for the n-th POST on that connection — the id
    the daemon side gives the same request."""
    import threading

    from repro.serve import ServeClient

    recorder = spans.SpanRecorder()
    lock = threading.Lock()
    posts: dict[int, int] = {}

    def op_after(args) -> str:
        conn = args[0]._conn
        if conn is None or conn.sock is None:
            return None
        port = conn.sock.getsockname()[1]
        with lock:
            posts[port] = n = posts.get(port, 0) + 1
        return f"{port}:{n}"

    recorder.wrap(ServeClient, "normalize", "serve.client", op_after=op_after)
    return recorder


def serve_layers(phase: dict, client, untraced_rate: float,
                 tail_pct: float) -> tuple[dict, dict]:
    import serve_load
    from spans import call_counts, durations, self_times

    timed = phase["timed"]
    summary = summarize(timed, tail_pct)
    roots = {op: (s, e) for op, (s, e) in durations(client.spans, "serve.client").items()
             if op is not None and s >= timed["start"]}
    daemon = phase["daemon_spans"]
    handler = durations(daemon["spans"], "serve.handler")
    matched = set(roots) & set(handler)
    ops = len(roots)
    if not ops:
        raise BenchError("traced run recorded no client op")
    own = self_times(daemon["spans"], matched)
    calls = call_counts(daemon["wrapped"], daemon["spans"], matched)
    silent = [n for n, c in calls.items() if c == 0]
    before, after = phase["before"], phase["after"]
    d = lambda name: serve_load.delta(before, after, name)  # noqa: E731
    worker_eval = d("bench_worker_eval_seconds_sum")
    if d("bench_worker_eval_seconds_count") <= 0:
        silent.append("RewriteEngine.normalize_many_outcomes (workers)")
    if silent:
        raise BenchError(f"wrapped entry points saw no call: {silent}")

    latency_s = sum(e - s for s, e in roots.values())
    client_s = sum((roots[o][1] - roots[o][0]) - (handler[o][1] - handler[o][0])
                   for o in matched)
    pool_calls = [e - s for o, (s, e) in durations(daemon["spans"], "pool.call").items()
                  if o in matched]
    pool_self = own.get("pool.call", 0.0)
    rewriting_s = min(pool_self, worker_eval / serve_load.WORKERS)
    layers = {
        "serve.client": client_s,
        "serve.http": own.get("serve.handler", 0.0),
        "serve.admission": own.get("serve.admit", 0.0),
        "spec": own.get("spec.parse_term", 0.0),
        "parallel.wire": sum(v for k, v in own.items() if k.startswith("wire.")),
        "parallel.pool": pool_self - rewriting_s,
        "rewriting": rewriting_s,
    }
    unattributed = latency_s - sum(layers.values())
    steps = d("engine_steps")
    probes, hits = d("engine_memo_probes"), d("engine_memo_hits")
    interns = d("intern_hits") + d("intern_misses")
    batches = d("parallel_batches")
    per_op = lambda seconds: 1000.0 * seconds / ops  # noqa: E731
    sizes = [daemon["request_bytes"][o] for o in matched]
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    metrics.update({
        "serve.client_ms": per_op(client_s),
        "serve.http_ms": per_op(layers["serve.http"]),
        "serve.admission_wait_ms": per_op(layers["serve.admission"]),
        "serve.shed": d("serve_shed"),
        "spec.parse_ms": per_op(layers["spec"]),
        "parallel.wire.decode_ms": per_op(own.get("wire.decode_terms", 0.0)
                                          + own.get("wire.decode_outcomes", 0.0)),
        "parallel.wire.encode_ms": per_op(own.get("wire.encode_terms", 0.0)
                                          + own.get("wire.encode_outcomes", 0.0)),
        "parallel.wire.request_kb": statistics.fmean(sizes) / 1024.0 if sizes else 0.0,
        "parallel.pool.call_ms": 1000.0 * statistics.fmean(pool_calls),
        "parallel.pool.overhead_frac":
            1.0 - worker_eval / (serve_load.WORKERS * sum(pool_calls)),
        "parallel.chunks_per_batch": d("parallel_chunks") / batches if batches else 0.0,
        "parallel.serial_items": d("parallel_serial_items"),
        "parallel.degradations": d("parallel_degradations"),
        "rewriting.eval_ms": per_op(worker_eval),
        "rewriting.steps_per_op": steps / ops,
        "rewriting.steps_per_s": steps / worker_eval if worker_eval else 0.0,
        "rewriting.memo_hit_rate": hits / probes if probes else 0.0,
        "rewriting.memo_probes_per_op": probes / ops,
        "rewriting.fallbacks": d("engine_fallbacks"),
        "algebra.intern_hit_rate": d("intern_hits") / interns if interns else 0.0,
        "algebra.constructions_per_op": interns / ops,
        "trace.ops": float(ops),
        "trace.overhead_frac":
            1.0 - summary["at_reference"]["ops_per_s"] / untraced_rate,
        "trace.unattributed_frac": unattributed / latency_s,
    })
    report = {
        "summary": summary,
        "untraced_ops_per_s_at_reference": untraced_rate,
        "matched_ops": len(matched),
        "calls": calls,
        "breakdown_ms_per_op": {
            **{k: per_op(v) for k, v in layers.items()},
            "unattributed": per_op(unattributed),
            "latency_mean": per_op(latency_s),
        },
        "bases": {
            "rewriting.memo_hit_rate": {"probes": probes},
            "algebra.intern_hit_rate": {"constructions": interns},
            "parallel.chunks_per_batch": {"batches": batches},
            "parallel.pool.overhead_frac": {
                "worker_eval_s": worker_eval, "pool_call_s": sum(pool_calls),
                "workers_per_pool": serve_load.WORKERS},
            "rewriting.steps_per_s": {"worker_eval_s": worker_eval},
            "per_op_values": {"ops": ops},
        },
    }
    return metrics, report


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------
def import_seconds() -> float:
    """A fresh interpreter importing ``repro``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    started = perf_counter()
    # No timeout: with one, the wait polls in sleeps of up to 50 ms.
    subprocess.run([sys.executable, "-c", "import repro"], cwd=ROOT, env=env,
                   check=True)
    return perf_counter() - started


def run_verify(args, work: Path) -> tuple[dict, dict, dict]:
    import verify_load

    tail_pct = WORKLOADS["verify"]["tail_percentile"]
    setup_raw, setups = ([], []) if args.trace else \
        scaled_setup(import_seconds, SETUP_REPEATS, 1)
    runner = verify_load.VerifyRunner(args.seed)
    runner.run(WARMUP_SECONDS, WARMUP_INDEX)
    runner.assertions = runner.undecided = 0
    speed = Speed()
    timed = runner.run(args.seconds, 0, speed=speed)
    phase = {"hygiene": [], "mismatches": list(runner.problems),
             "speed": speed}
    if not args.trace:
        summary = summarize(timed, tail_pct)
        from serve_load import peak_rss_mib

        metrics = end_to_end(summary, statistics.median(setups),
                             peak_rss_mib(os.getpid()))
        report = {"summary": summary, "setup_samples_s": setups,
                  "setup_raw_samples_s": setup_raw,
                  "verify.undecided": runner.undecided,
                  "verify.assertions": runner.assertions}
        return metrics, report, phase
    untraced = summarize(timed, tail_pct)
    untraced_rate = untraced["at_reference"]["ops_per_s"]
    phase["untraced_failed"] = untraced["failed"]
    metrics, report, phase["speed"] = verify_layers(args, untraced_rate,
                                                    tail_pct)
    phase["mismatches"] += report.pop("problems")
    return metrics, report, phase


def verify_layers(args, untraced_rate: float, tail_pct: float):
    import repro.analysis
    import repro.spec.parser
    import repro.verify
    import verify_load
    from repro.obs.metrics import GLOBAL
    from repro.rewriting.engine import RewriteEngine
    from repro.verify.prover import EquationalProver
    from spans import call_counts, durations, self_times

    recorder = spans.SpanRecorder()
    engines: list = []
    totals = {"steps": 0, "hits": 0, "probes": 0, "fallbacks": 0}

    class Traced(verify_load.VerifyRunner):
        def check(self, job, verdict):
            for engine in engines:
                stats = engine.stats
                totals["steps"] += stats.steps
                totals["hits"] += stats.cache_hits
                totals["probes"] += stats.cache_probes
                totals["fallbacks"] += stats.fallbacks.total
            engines.clear()
            return super().check(job, verdict)

    wrap = recorder.wrap
    wrap(Traced, "job", "verify.job", root=lambda a: a[1])
    wrap(repro.spec.parser, "parse_specification", "spec.parse_specification")
    wrap(RewriteEngine, "__init__", "rewriting.build")
    built = RewriteEngine.__init__

    def capture(self, *a, **k):
        built(self, *a, **k)
        engines.append(self)

    wrap(RewriteEngine, "normalize", "rewriting.normalize")
    wrap(RewriteEngine, "simplify", "rewriting.simplify")
    wrap(repro.analysis, "check_sufficient_completeness", "analysis.completeness")
    wrap(repro.analysis, "check_consistency", "analysis.consistency")
    wrap(repro.verify, "parse_client_program", "verify.parse_client_program")
    wrap(repro.verify, "verify_client", "verify.verify_client")
    wrap(EquationalProver, "prove", "verify.prove")
    wrap(repro.verify, "verify_representation", "verify.representation")
    RewriteEngine.__init__ = capture

    runner = Traced(args.seed)
    runner.run(WARMUP_SECONDS, WARMUP_INDEX)
    runner.assertions = runner.undecided = 0
    for key in totals:
        totals[key] = 0
    snap = lambda: GLOBAL.snapshot()["counters"]  # noqa: E731
    before = snap()
    speed = Speed()
    timed = runner.run(args.seconds, 0, speed=speed)
    after = snap()
    summary = summarize(timed, tail_pct)
    roots = {op: se for op, se in durations(recorder.spans, "verify.job").items()
             if op is not None and op < WARMUP_INDEX}
    ops = len(roots)
    calls = call_counts(recorder.wrapped, recorder.spans, set(roots))
    silent = [n for n, c in calls.items() if c == 0]
    if silent:
        raise BenchError(f"wrapped entry points saw no call: {silent}")
    own = self_times(recorder.spans, set(roots))
    kind_of = lambda op: inputs.VERIFY_BLOCK[op % len(inputs.VERIFY_BLOCK)]  # noqa: E731
    representation_ops = {op for op in roots if kind_of(op) == "representation"}
    in_representation = self_times(recorder.spans, representation_ops)
    latency_s = sum(e - s for s, e in roots.values())
    eval_s = own.get("rewriting.normalize", 0.0) + own.get("rewriting.simplify", 0.0)
    layers = {
        "spec": own.get("spec.parse_specification", 0.0),
        "rewriting": eval_s + own.get("rewriting.build", 0.0),
        "analysis": own.get("analysis.completeness", 0.0)
        + own.get("analysis.consistency", 0.0),
        "verify": verify_self(own),
    }
    representation_s = verify_self(in_representation)
    unattributed = latency_s - sum(layers.values())
    hits = after["intern.hits"] - before["intern.hits"]
    interns = hits + after["intern.misses"] - before["intern.misses"]
    per_op = lambda seconds: 1000.0 * seconds / ops  # noqa: E731
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    metrics.update({
        "spec.parse_ms": per_op(layers["spec"]),
        "rewriting.eval_ms": per_op(eval_s),
        "rewriting.steps_per_op": totals["steps"] / ops,
        "rewriting.steps_per_s": totals["steps"] / eval_s if eval_s else 0.0,
        "rewriting.memo_hit_rate":
            totals["hits"] / totals["probes"] if totals["probes"] else 0.0,
        "rewriting.memo_probes_per_op": totals["probes"] / ops,
        "rewriting.fallbacks": float(totals["fallbacks"]),
        "rewriting.engine_build_ms": per_op(own.get("rewriting.build", 0.0)),
        "algebra.intern_hit_rate": hits / interns if interns else 0.0,
        "algebra.constructions_per_op": interns / ops,
        "analysis.completeness_ms": per_op(own.get("analysis.completeness", 0.0)),
        "analysis.consistency_ms": per_op(own.get("analysis.consistency", 0.0)),
        "verify.prove_ms": per_op(layers["verify"] - representation_s),
        "verify.representation_ms": per_op(representation_s),
        "verify.undecided": float(runner.undecided),
        "trace.ops": float(ops),
        "trace.overhead_frac":
            1.0 - summary["at_reference"]["ops_per_s"] / untraced_rate,
        "trace.unattributed_frac": unattributed / latency_s,
    })
    report = {
        "summary": summary,
        "untraced_ops_per_s_at_reference": untraced_rate,
        "calls": calls,
        "breakdown_ms_per_op": {
            **{k: per_op(v) for k, v in layers.items()},
            "unattributed": per_op(unattributed),
            "latency_mean": per_op(latency_s),
        },
        "bases": {
            "rewriting.memo_hit_rate": {"probes": totals["probes"]},
            "algebra.intern_hit_rate": {"constructions": interns},
            "rewriting.steps_per_s": {"eval_s": eval_s},
            "verify.undecided": {"assertions": runner.assertions},
            "per_op_values": {"ops": ops},
        },
        "problems": list(runner.problems),
    }
    return metrics, report, speed


def verify_self(own: dict) -> float:
    """Self time in the verify layer's entry points (not the job root)."""
    return sum(v for k, v in own.items()
               if k.startswith("verify.") and k != "verify.job")


# ----------------------------------------------------------------------
# Result
# ----------------------------------------------------------------------
def end_to_end(summary: dict, setup_s: float, rss_mib: float) -> dict:
    """The end-to-end metrics, times and rates at the reference
    machine speed."""
    return {
        **summary["at_reference"],
        "ok_frac": 1.0 - summary["failed"] / summary["ops"],
        "setup_s": setup_s,
        "peak_rss_mb": rss_mib,
    }


def at_reference(metrics: dict, units: dict, factor: float) -> dict:
    """Scale per-layer times and rates to the reference machine speed
    by the timed phase's factor."""
    scaled = dict(metrics)
    for name, unit in units.items():
        if unit in ("ms", "s"):
            scaled[name] = metrics[name] / factor
        elif unit in ("op/s", "1/s"):
            scaled[name] = metrics[name] * factor
    return scaled


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # A shell that starts this in the background ignores SIGINT, and the
    # daemons would inherit that; SIGINT is how they are shut down.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    # Termination unwinds too, so every daemon started is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = run_verify if args.workload == "verify" else run_serve
        metrics, report, phase = runner(args, work)
    except (BenchError, OSError, RuntimeError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    summary = report["summary"]
    flags = [f"{k} moved by {v:g}" for k, v in report.get("health", {}).items() if v]
    flags += [f"untraced {k} moved by {v:g}"
              for k, v in report.get("untraced_health", {}).items() if v]
    flags += phase["hygiene"] + phase["mismatches"]
    if phase.get("warmup_errors"):
        flags.append(f"warm-up ops failed (errors: {phase['warmup_errors']})")
    if summary["failed"] or phase.get("untraced_failed"):
        flags.append(f"{summary['failed']} of {summary['ops']} ops failed "
                     f"(errors: {summary['errors']})")
    report["flags"] = flags
    # A daemon or worker that had to be killed at shutdown answered
    # every op of the run; it is a defect of the program's exit path
    # (README "Health and hygiene"), reported but not failing the run.
    report["unclean_shutdown"] = phase.get("unclean", [])
    report["failed_frac"] = {"value": summary["failed"] / summary["ops"],
                             "base_ops": summary["ops"]}
    report["provenance"] = provenance(args, {
        **WORKLOADS[args.workload],
        "setup_repeats": SETUP_REPEATS if not args.trace else 1,
        "warmup_seconds": WARMUP_SECONDS,
        "workers": 2 if args.workload != "verify" else None,
        "daemons": None if args.workload == "verify" else
        1 if args.trace else DAEMONS,
    })
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    report["speed"] = phase["speed"].report()
    if args.trace:
        report["raw_metrics"] = dict(metrics)
        metrics = at_reference(metrics, units, phase["speed"].factor)
    result = {
        "correct": not flags,
        "attempted": summary["ops"],
        "failed": summary["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    for flag in flags:
        print(f"perfbench: FLAG {flag}", file=sys.stderr)
    for note in report["unclean_shutdown"]:
        print(f"perfbench: unclean shutdown: {note}", file=sys.stderr)
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
