"""Smoke test for the benchmark driver (``benchmarks/run_benchmarks.py``).

Runs the driver in ``--quick`` mode against a temporary output directory
and checks the shape of the emitted artefacts, so a refactor that breaks
the committed ``BENCH_E7.json``/``BENCH_E10.json`` regeneration fails in
tier 1 rather than at the next full benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_driver_quick_mode(tmp_path):
    proc = subprocess.run(
        [
            sys.executable,
            str(REPO_ROOT / "benchmarks" / "run_benchmarks.py"),
            "--quick",
            "--output-dir",
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr

    e7 = json.loads((tmp_path / "BENCH_E7.json").read_text())
    assert e7["experiment"] == "E7"
    assert e7["mode"] == "quick"
    assert e7["symbolic"]["ops_per_sec"] > 0
    assert 0.0 <= e7["symbolic"]["cache_hit_rate"] <= 1.0
    assert e7["symbolic"]["peak_intern_table"] > 0
    # The paper's "significant loss in efficiency" has the right sign.
    assert e7["symbolic_over_concrete"] > 1.0
    # The observability embed: hit rates and a per-rule firing profile.
    for section in ("symbolic", "symbolic_codegen"):
        metrics = e7[section]["metrics"]
        if "intern_hit_rate" in metrics:
            assert 0.0 <= metrics["intern_hit_rate"] <= 1.0
        assert metrics["rule_firings"]
        assert all(n > 0 for n in metrics["rule_firings"].values())
    assert e7["codegen_over_concrete"] > 1.0
    assert e7["symbolic_codegen"]["ops_per_sec"] > 0
    assert e7["codegen_vs_interpreted"] > 0

    e10 = json.loads((tmp_path / "BENCH_E10.json").read_text())
    assert e10["experiment"] == "E10"
    assert e10["mode"] == "quick"
    expected_configs = {"full", "codegen"}
    assert set(e10["configs"]) == expected_configs
    for config in e10["configs"].values():
        for size in map(str, e10["sizes"]):
            sample = config[size]
            assert sample["steps_per_sec"] > 0
            assert 0.0 <= sample["cache_hit_rate"] <= 1.0
            metrics = sample["metrics"]
            # Inapplicable counters are omitted, never emitted as null.
            assert None not in metrics.values()
            if "shape_memo_hit_rate" in metrics:
                assert 0.0 <= metrics["shape_memo_hit_rate"] <= 1.0
            assert sum(metrics["rule_firings"].values()) > 0
    # The backend ablations are recorded for every size.
    for size in map(str, e10["sizes"]):
        assert e10["codegen_vs_interpreted"][size] > 0
    # Quick mode never times the seed commit.
    assert "seed_baseline" not in e10
