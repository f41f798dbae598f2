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
    args = parser.parse_args(argv)

    baseline = json.loads(args.baseline.read_text())
    size = max(baseline["sizes"])
    configs = dict(E10_CONFIGS)

    def measure(name: str) -> float:
        return _measure_drain(size, configs[name], 1)["seconds"]

    def committed(name: str) -> float:
        return baseline["configs"][name][str(size)]["seconds"]

    guarded = [name for name in GUARDED if name in baseline["configs"]]
    for name in GUARDED:
        if name not in guarded:
            print(f"drain@{size}: {name} not in baseline, skipping")
    ratios: dict[str, list[float]] = {name: [] for name in guarded}
    for round_no in range(1, max(args.reps, 1) + 1):
        full = measure("full")
        line = f"drain@{size} round {round_no}: full {full:.6f}s"
        for name in guarded:
            seconds = measure(name)
            ratios[name].append(seconds / full)
            line += f", {name} {seconds:.6f}s ({seconds / full:.3f}x full)"
        print(line)
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

    return status


if __name__ == "__main__":
    raise SystemExit(main())
