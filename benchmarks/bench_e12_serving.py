#!/usr/bin/env python
"""E12 — serving throughput and tail latency, healthy and degraded.

The serving claim behind the ROADMAP's "production-scale system"
north star: a warm ``repro serve`` daemon answers concurrent batched
normalisation far faster than cold-start CLI invocations, *and keeps
answering* when a shard worker is SIGKILLed mid-run (pool degrades to
parent-side serial evaluation, the supervisor respawns it behind the
scenes).  This benchmark measures both modes with real HTTP traffic
from the stdlib client:

* ``rps`` — completed requests per wall-clock second across all client
  threads;
* ``p50_ms`` / ``p99_ms`` — client-observed per-request latency;
* ``dropped`` — requests that resolved to neither per-item Outcomes
  nor a structured shed; the robustness invariant is that this is 0 in
  *both* modes;
* ``recovery_seconds`` (degraded mode) — time from the SIGKILL until
  ``/readyz`` reports the pool healthy again.

Writes ``BENCH_E12.json`` next to this file::

    PYTHONPATH=src python benchmarks/bench_e12_serving.py [--quick]

``check_perf_regression.py --serve`` re-runs the healthy measurement
and guards rps against this artefact (machine-normalised), plus the
machine-free invariants: zero dropped requests and degraded-mode
recovery.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import threading
import time
from pathlib import Path

BENCH_PATH = Path(__file__).resolve().parent / "BENCH_E12.json"


def _subjects(batch: int, tag: str) -> list:
    from repro.adt.queue import FRONT, queue_term
    from repro.algebra.terms import App

    return [
        App(FRONT, (queue_term([f"{tag}{i}a", f"{tag}{i}b", f"{tag}{i}c"]),))
        for i in range(batch)
    ]


def _drive(host, port, requests, batch, tag, latencies, failures, keepalive):
    from repro.serve import ServeClient, ServeUnavailable

    client = ServeClient(
        host,
        port,
        timeout=30.0,
        retries=2,
        backoff=0.01,
        seed=len(tag),
        keepalive=keepalive,
    )
    for i in range(requests):
        subjects = _subjects(batch, f"{tag}r{i}")
        started = time.perf_counter()
        try:
            outcomes = client.normalize(subjects, spec="Queue")
        except ServeUnavailable:
            failures.append("shed")  # structured refusal, not a drop
            continue
        elapsed = time.perf_counter() - started
        if len(outcomes) == len(subjects) and all(o.ok for o in outcomes):
            latencies.append(elapsed)
        else:
            failures.append("bad_batch")  # a genuine drop — guard fails


def measure_serving(
    mode: str = "healthy",
    threads: int = 4,
    requests: int = 25,
    batch: int = 8,
    workers: int = 2,
    trace_sample: float | None = None,
    otlp_path: str | None = None,
    keepalive: bool = True,
) -> dict:
    """Boot a daemon, drive concurrent load, return one sample dict.

    ``mode="degraded"`` SIGKILLs one shard worker right after the load
    starts and additionally reports the ``/readyz`` recovery time.
    ``trace_sample``/``otlp_path`` turn request tracing on server-side
    (the tracing-overhead rows); ``keepalive=False`` makes every client
    open a fresh connection per request (the connection-reuse rows).
    """
    from repro.adt.queue import QUEUE_SPEC
    from repro.obs import metrics as _metrics
    from repro.serve import ReproServer, ServeClient, ServeLimits

    registry = _metrics.MetricsRegistry(f"bench-e12-{mode}")
    with ReproServer(
        [QUEUE_SPEC],
        workers=workers,
        limits=ServeLimits(max_inflight=threads, queue_depth=threads * 4),
        supervisor_options={"backoff_base": 0.05, "backoff_cap": 0.5},
        registry=registry,
        trace_sample=trace_sample,
        otlp_path=otlp_path,
    ) as server:
        host, port = server.address
        latencies: list[float] = []
        failures: list[str] = []
        pool = [
            threading.Thread(
                target=_drive,
                args=(
                    host,
                    port,
                    requests,
                    batch,
                    f"t{n}",
                    latencies,
                    failures,
                    keepalive,
                ),
            )
            for n in range(threads)
        ]
        killed_at = None
        started = time.perf_counter()
        for thread in pool:
            thread.start()
        if mode == "degraded":
            victims = server.sessions["Queue"].supervisor.worker_pids()
            if victims:
                os.kill(victims[0], signal.SIGKILL)
                killed_at = time.perf_counter()
        for thread in pool:
            thread.join()
        wall = time.perf_counter() - started

        recovery = None
        if killed_at is not None:
            client = ServeClient(host, port, timeout=10.0, retries=0)
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                if client.readyz()["ready"]:
                    recovery = time.perf_counter() - killed_at
                    break
                time.sleep(0.05)

        ranked = sorted(latencies)

        def quantile(q: float) -> float:
            if not ranked:
                return 0.0
            return ranked[min(len(ranked) - 1, int(q * len(ranked)))]

        return {
            "mode": mode,
            "threads": threads,
            "requests_per_thread": requests,
            "batch": batch,
            "workers": workers,
            "completed": len(latencies),
            "shed": failures.count("shed"),
            "dropped": failures.count("bad_batch"),
            "wall_seconds": round(wall, 6),
            "rps": round(len(latencies) / wall, 2) if wall else 0.0,
            "items_per_sec": (
                round(len(latencies) * batch / wall, 2) if wall else 0.0
            ),
            "p50_ms": round(quantile(0.50) * 1e3, 3),
            "p99_ms": round(quantile(0.99) * 1e3, 3),
            "mean_ms": (
                round(statistics.mean(ranked) * 1e3, 3) if ranked else 0.0
            ),
            "recovery_seconds": (
                round(recovery, 3) if recovery is not None else None
            ),
        }


def _serial_rps(name: str, requests: int, batch: int, warmup: int, **extra):
    """One daemon boot (serial sessions — no shard-pool fork noise),
    one keep-alive client, ``requests`` back-to-back batches timed as a
    block.  Returns completed requests per second."""
    from repro.adt.queue import QUEUE_SPEC
    from repro.obs import metrics as _metrics
    from repro.serve import ReproServer, ServeClient

    registry = _metrics.MetricsRegistry(f"bench-e12-{name}")
    with ReproServer([QUEUE_SPEC], registry=registry, **extra) as server:
        host, port = server.address
        with ServeClient(host, port, timeout=30.0, retries=2) as client:
            for i in range(warmup):
                outcomes = client.normalize(
                    _subjects(batch, f"w{i}"), spec="Queue"
                )
                assert all(o.ok for o in outcomes)
            started = time.perf_counter()
            for i in range(requests):
                client.normalize(_subjects(batch, f"{name}{i}"), spec="Queue")
            return requests / (time.perf_counter() - started)


def measure_tracing_overhead(
    requests: int = 150,
    batch: int = 4,
    warmup: int = 30,
    reps: int = 5,
) -> dict:
    """The rps cost of distributed tracing, interleaved best-of-``reps``.

    Three daemon configurations under identical serial load: tracing
    absent, tracing wired but muted (``trace_sample=0.0`` — the request
    path pays the span plumbing but records nothing), and
    ``trace_sample=0.1`` with OTLP export of every tenth request.  Each
    sample is its own daemon boot; interleaving plus best-of keeps one
    machine-speed wobble from landing on a single configuration.
    Sessions are serial and interpreted (not the codegen serving
    default) so the per-firing engine instrumentation runs in-daemon —
    the most tracing-exposed request path.
    """
    import tempfile

    base = disabled = sampled = 0.0
    with tempfile.TemporaryDirectory() as tmp:
        otlp = os.path.join(tmp, "traces.jsonl")
        for rep in range(reps):
            base = max(
                base,
                _serial_rps(
                    f"base{rep}", requests, batch, warmup,
                    backend="interpreted",
                ),
            )
            disabled = max(
                disabled,
                _serial_rps(
                    f"dis{rep}", requests, batch, warmup,
                    backend="interpreted", trace_sample=0.0, otlp_path=otlp,
                ),
            )
            sampled = max(
                sampled,
                _serial_rps(
                    f"smp{rep}", requests, batch, warmup,
                    backend="interpreted", trace_sample=0.1, otlp_path=otlp,
                ),
            )

    def overhead(rps: float) -> float:
        if not base:
            return 0.0
        return round(max(0.0, (base - rps) / base * 100.0), 2)

    return {
        "baseline_rps": round(base, 2),
        "disabled_rps": round(disabled, 2),
        "disabled_overhead_pct": overhead(disabled),
        "sampled_trace_fraction": 0.1,
        "sampled_rps": round(sampled, 2),
        "sampled_overhead_pct": overhead(sampled),
        "requests": requests,
        "batch": batch,
        "reps": reps,
    }


def measure_connection_reuse(
    requests: int = 150,
    warmup: int = 20,
    reps: int = 3,
) -> dict:
    """Keep-alive vs connection-per-request rps against the *same*
    daemon (one boot, two clients, interleaved best-of rounds) — the
    delta is the TCP handshake plus the per-connection server thread
    the HTTP/1.1 daemon lets persistent clients skip."""
    from repro.adt.queue import QUEUE_SPEC
    from repro.obs import metrics as _metrics
    from repro.serve import ReproServer, ServeClient

    registry = _metrics.MetricsRegistry("bench-e12-reuse")
    with ReproServer([QUEUE_SPEC], registry=registry) as server:
        host, port = server.address
        with ServeClient(host, port, timeout=30.0, retries=2) as keep, \
                ServeClient(
                    host, port, timeout=30.0, retries=2, keepalive=False
                ) as once:
            keepalive = oneshot = 0.0
            for i in range(warmup):
                keep.normalize(_subjects(1, f"wk{i}"), spec="Queue")
                once.normalize(_subjects(1, f"wo{i}"), spec="Queue")
            for rep in range(reps):
                started = time.perf_counter()
                for i in range(requests):
                    keep.normalize(_subjects(1, f"k{rep}{i}"), spec="Queue")
                keepalive = max(
                    keepalive, requests / (time.perf_counter() - started)
                )
                started = time.perf_counter()
                for i in range(requests):
                    once.normalize(_subjects(1, f"o{rep}{i}"), spec="Queue")
                oneshot = max(
                    oneshot, requests / (time.perf_counter() - started)
                )
    return {
        "keepalive_rps": round(keepalive, 2),
        "oneshot_rps": round(oneshot, 2),
        "keepalive_speedup": (
            round(keepalive / oneshot, 2) if oneshot else None
        ),
        "requests": requests,
        "reps": reps,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small load for CI smoke (fewer threads and requests)",
    )
    parser.add_argument("--out", type=Path, default=BENCH_PATH)
    args = parser.parse_args(argv)

    threads = 2 if args.quick else 4
    requests = 10 if args.quick else 25

    payload = {
        "experiment": "E12",
        "workload": (
            "concurrent batched FRONT-observation requests against a "
            "warm `repro serve` daemon (Queue spec, supervised shard "
            "pool), stdlib client over HTTP/TCP"
        ),
        "modes": {},
    }
    for mode in ("healthy", "degraded"):
        sample = measure_serving(
            mode=mode, threads=threads, requests=requests
        )
        payload["modes"][mode] = sample
        print(
            f"{mode}: {sample['rps']} req/s, p50 {sample['p50_ms']}ms, "
            f"p99 {sample['p99_ms']}ms, completed {sample['completed']}, "
            f"shed {sample['shed']}, dropped {sample['dropped']}"
            + (
                f", recovered in {sample['recovery_seconds']}s"
                if sample["recovery_seconds"] is not None
                else ""
            ),
            flush=True,
        )
        if sample["dropped"]:
            print(f"{mode}: DROPPED BATCHES — robustness invariant broken")
            return 1

    tracing = measure_tracing_overhead(
        requests=60 if args.quick else 150, reps=2 if args.quick else 5
    )
    payload["tracing"] = tracing
    print(
        f"tracing: base {tracing['baseline_rps']} req/s, muted "
        f"{tracing['disabled_rps']} "
        f"(-{tracing['disabled_overhead_pct']}%), sample=0.1 "
        f"{tracing['sampled_rps']} "
        f"(-{tracing['sampled_overhead_pct']}%)",
        flush=True,
    )

    reuse = measure_connection_reuse(
        requests=60 if args.quick else 150, reps=2 if args.quick else 3
    )
    payload["connection_reuse"] = reuse
    print(
        f"connection reuse: keep-alive {reuse['keepalive_rps']} req/s vs "
        f"one-shot {reuse['oneshot_rps']} req/s -> "
        f"{reuse['keepalive_speedup']}x",
        flush=True,
    )

    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
