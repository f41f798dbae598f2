"""Self-test: a tiny run of every workload, measured and traced.

    python3 perfbench/selftest.py

Each run must exit 0 and end with a result line whose metrics are
exactly the ones ``BENCHMARK.json`` names, each with its unit: the
end-to-end metrics untraced, the per-layer metrics traced.  A traced
run already fails by itself when a wrapped entry point is missing or
saw no call.  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Timed seconds of each tiny run: enough for serve-batch to reach its
#: first text request (every 8th, from the 6th) on a slowed machine,
#: so that every wrapped entry point sees a call.
SECONDS = 3.0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            command = [sys.executable, str(HERE / "run.py"), "--workload",
                       workload, "--seed", "7", "--seconds", str(SECONDS),
                       "--trace", str(trace)]
            run = subprocess.run(command, cwd=ROOT, capture_output=True,
                                 text=True, timeout=300)
            label = f"{workload} --trace {trace}"
            if run.returncode != 0:
                print(f"selftest: {label} exited {run.returncode}\n{run.stderr}")
                return 1
            result = json.loads(run.stdout.splitlines()[-1])
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                print(f"selftest: {label} result keys {sorted(result)}")
                return 1
            if units != expected[trace] or not result["correct"]:
                print(f"selftest: {label} metrics {units}, correct="
                      f"{result['correct']}; expected {expected[trace]}")
                return 1
            for name, metric in result["metrics"].items():
                print(f"{label:24s} {name:28s} {metric['value']:.6g} {metric['unit']}")
    print("selftest: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
