#!/usr/bin/env python
"""CI perf guard for the E10 drain workload.

Re-measures the drain at the committed benchmark's largest size for the
guarded backends and compares against the committed ``BENCH_E10.json``
— *machine-normalised*: the interpreted ``full`` configuration and each
guarded row are measured in ``--reps`` alternating rounds, and the
median of the per-round ``guarded / full`` ratio is compared with the
committed ratio.  Each round's two drains run back to back, so a busy
neighbour slows both sides of that round's ratio alike; the median then
discards the rounds it hit unevenly.  The guard therefore fails on a
real regression of the codegen backend relative to the interpreted
engine, not on a slower or noisier machine than the one that produced
the committed artefact.

Run from the repository root::

    PYTHONPATH=src python benchmarks/check_perf_regression.py

Exit status 1 when a guarded backend's median ratio is more than
``--threshold`` (default 1.25x) above its committed ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

from run_benchmarks import (  # noqa: E402
    E10_CONFIGS,
    _measure_drain,
    _measure_parallel_batch,
    _parallel_subjects,
)

#: Configurations the guard re-measures and compares.  ``full`` is the
#: normaliser, not a guarded row: each guarded row is judged by its
#: time relative to ``full`` measured in the same round.
GUARDED = ("codegen",)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        default=BENCH_DIR / "BENCH_E10.json",
        help="committed benchmark artefact to guard against",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=1.25,
        help="fail when measured > scaled baseline x this (default 1.25)",
    )
    parser.add_argument(
        "--reps",
        type=int,
        default=3,
        help="alternating full/guarded measurement rounds (default 3)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="shard count for the parallel scaling guard; 0 disables "
        "(default 4)",
    )
    parser.add_argument(
        "--workers-min-speedup",
        type=float,
        default=2.0,
        help="fail when the workers batch is not at least this much "
        "faster than serial (default 2.0; only enforced when the "
        "machine has >= workers cores)",
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="also guard the E12 serving benchmark: healthy rps vs the "
        "committed BENCH_E12.json (machine-normalised) plus the "
        "machine-free invariants (zero dropped batches, degraded-mode "
        "recovery)",
    )
    parser.add_argument(
        "--serve-threshold",
        type=float,
        default=2.0,
        help="fail when healthy serving rps is more than this factor "
        "below the scaled committed baseline (default 2.0)",
    )
    parser.add_argument(
        "--trace-overhead-disabled",
        type=float,
        default=1.0,
        help="with --serve: max rps cost (percent) of wiring tracing "
        "but keeping it muted, trace_sample=0.0 (default 1.0)",
    )
    parser.add_argument(
        "--trace-overhead-sampled",
        type=float,
        default=10.0,
        help="with --serve: max rps cost (percent) of tracing at "
        "trace_sample=0.1 with OTLP export (default 10.0)",
    )
    parser.add_argument(
        "--trace-attempts",
        type=int,
        default=3,
        help="re-measure the tracing overhead up to this many times "
        "before calling it a regression (default 3; live-daemon rps "
        "is noisy, a bound this tight needs the retry)",
    )
    args = parser.parse_args(argv)

    baseline = json.loads(args.baseline.read_text())
    size = max(baseline["sizes"])
    configs = {name: row for name, *row in E10_CONFIGS}

    def measure(name: str) -> float:
        interning, backend = configs[name]
        return _measure_drain(size, interning, backend, 1)["seconds"]

    def committed(name: str) -> float:
        return baseline["configs"][name][str(size)]["seconds"]

    guarded = [name for name in GUARDED if name in baseline["configs"]]
    for name in GUARDED:
        if name not in guarded:
            print(f"drain@{size}: {name} not in baseline, skipping")
    fulls: list[float] = []
    ratios: dict[str, list[float]] = {name: [] for name in guarded}
    for round_no in range(1, max(args.reps, 1) + 1):
        full = measure("full")
        fulls.append(full)
        line = f"drain@{size} round {round_no}: full {full:.6f}s"
        for name in guarded:
            seconds = measure(name)
            ratios[name].append(seconds / full)
            line += f", {name} {seconds:.6f}s ({seconds / full:.3f}x full)"
        print(line)
    # The serving guard below still needs an absolute machine scale.
    scale = statistics.median(fulls) / committed("full")
    print(
        f"drain@{size}: full median {statistics.median(fulls):.6f}s, "
        f"committed {committed('full'):.6f}s -> machine scale {scale:.2f}x"
    )

    status = 0
    for name in guarded:
        measured = statistics.median(ratios[name])
        expected = committed(name) / committed("full")
        allowed = expected * args.threshold
        verdict = "ok" if measured <= allowed else "REGRESSION"
        print(
            f"drain@{size}: {name}/full median {measured:.3f}x, allowed "
            f"{allowed:.3f}x (committed {expected:.3f}x x "
            f"{args.threshold}) -> {verdict}"
        )
        if measured > allowed:
            status = 1

    # Parallel scaling guard.  Unlike the rows above this is an
    # *absolute* property (sharded vs serial on the same machine, same
    # run), so no machine-scale correction applies — but it only means
    # anything when the machine can actually run the shards
    # concurrently, hence the core-count gate.
    if args.workers > 1:
        cpus = os.cpu_count() or 1
        parallel = baseline.get("parallel", {})
        batch = parallel.get("batch", 128)
        psize = parallel.get("size", 128)
        backend = parallel.get("backend", "interpreted")
        if cpus < args.workers:
            print(
                f"parallel@{psize}x{batch}: {cpus} cpu(s) < "
                f"{args.workers} workers, skipping the scaling guard"
            )
        else:
            subjects = _parallel_subjects(batch, psize)
            serial = _measure_parallel_batch(subjects, backend, args.reps)
            sharded = _measure_parallel_batch(
                subjects, backend, args.reps, args.workers
            )
            speedup = serial / sharded
            verdict = (
                "ok" if speedup >= args.workers_min_speedup else "REGRESSION"
            )
            print(
                f"parallel@{psize}x{batch}: serial {serial:.6f}s, "
                f"workers={args.workers} {sharded:.6f}s -> speedup "
                f"{speedup:.2f}x (min {args.workers_min_speedup}) "
                f"-> {verdict}"
            )
            if speedup < args.workers_min_speedup:
                status = 1

    # Serving guard (E12).  Two layers: a machine-normalised rps floor
    # for the healthy daemon (same scale correction as the drain rows,
    # throughput divides where seconds multiply), and machine-free
    # robustness invariants that hold on any hardware — no request may
    # resolve to a dropped batch, and a daemon with a SIGKILLed shard
    # worker must recover its readiness probe.
    if args.serve:
        from bench_e12_serving import measure_serving

        serve_path = BENCH_DIR / "BENCH_E12.json"
        if not serve_path.exists():
            print("serve: no BENCH_E12.json baseline, skipping")
        else:
            e12 = json.loads(serve_path.read_text())
            base = e12["modes"]["healthy"]
            params = dict(
                threads=base["threads"],
                requests=base["requests_per_thread"],
                batch=base["batch"],
                workers=base["workers"],
            )
            healthy = measure_serving(mode="healthy", **params)
            floor = base["rps"] / scale / args.serve_threshold
            verdict = "ok" if healthy["rps"] >= floor else "REGRESSION"
            print(
                f"serve/healthy: measured {healthy['rps']} req/s, floor "
                f"{floor:.2f} (committed {base['rps']} / {scale:.2f} / "
                f"{args.serve_threshold}) -> {verdict}"
            )
            if healthy["rps"] < floor:
                status = 1
            degraded = measure_serving(mode="degraded", **params)
            for sample in (healthy, degraded):
                if sample["dropped"]:
                    print(
                        f"serve/{sample['mode']}: {sample['dropped']} "
                        "dropped batches -> REGRESSION"
                    )
                    status = 1
            if degraded["recovery_seconds"] is None:
                print("serve/degraded: /readyz never recovered -> REGRESSION")
                status = 1
            else:
                print(
                    f"serve/degraded: {degraded['rps']} req/s, p99 "
                    f"{degraded['p99_ms']}ms, recovered in "
                    f"{degraded['recovery_seconds']}s -> ok"
                )

        # Tracing overhead guard: machine-free (traced vs untraced on
        # the same machine in the same run), so it needs no committed
        # baseline — but live-daemon rps is noisy enough that a 1%
        # bound gets a few attempts before the verdict sticks.
        from bench_e12_serving import measure_tracing_overhead

        for attempt in range(1, args.trace_attempts + 1):
            tracing = measure_tracing_overhead(requests=100, reps=3)
            muted_ok = (
                tracing["disabled_overhead_pct"]
                <= args.trace_overhead_disabled
            )
            sampled_ok = (
                tracing["sampled_overhead_pct"]
                <= args.trace_overhead_sampled
            )
            verdict = (
                "ok"
                if muted_ok and sampled_ok
                else (
                    "retry"
                    if attempt < args.trace_attempts
                    else "REGRESSION"
                )
            )
            print(
                f"serve/tracing[{attempt}]: muted "
                f"-{tracing['disabled_overhead_pct']}% rps (max "
                f"{args.trace_overhead_disabled}%), sample=0.1 "
                f"-{tracing['sampled_overhead_pct']}% rps (max "
                f"{args.trace_overhead_sampled}%) -> {verdict}"
            )
            if muted_ok and sampled_ok:
                break
        else:
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
