"""``repro serve`` evaluates with codegen unless told otherwise.

The serving default must give the interpreted reference engine's
answers on every outcome kind — a strict ``error``, a fuel-limited
truncation and a deep spine that drops off the generated module onto
the interpreted machine (the ``codegen_depth`` rung) — through real
2-worker daemons booted from the CLI, one per backend.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.adt.queue import QUEUE_SPEC
from repro.algebra.terms import app
from repro.cli import build_parser
from repro.obs import metrics as _metrics
from repro.runtime import EvaluationBudget
from repro.serve import ReproServer, ServeClient
from repro.spec.parser import parse_specification
from repro.spec.prelude import item

ROOT = Path(__file__).resolve().parents[2]

# The paper's Queue, except that REMOVE rebuilds through SNOC, a defined
# operation rather than the ADD constructor.  The generated functions
# recurse once per REMOVE rewrite, so a deep REMOVE spine passes their
# depth limit and takes the codegen_depth fallback.
DEEP_QUEUE = """
type Queue [Item]
uses Boolean, Item

operations
  NEW:       -> Queue
  ADD:       Queue x Item -> Queue
  SNOC:      Queue x Item -> Queue
  FRONT:     Queue -> Item
  REMOVE:    Queue -> Queue
  IS_EMPTY?: Queue -> Boolean

vars
  q: Queue
  i: Item

axioms
  (1) IS_EMPTY?(NEW) = true
  (2) IS_EMPTY?(ADD(q, i)) = false
  (3) FRONT(NEW) = error
  (4) FRONT(ADD(q, i)) = if IS_EMPTY?(q) then i else FRONT(q)
  (5) REMOVE(NEW) = error
  (6) REMOVE(ADD(q, i)) = if IS_EMPTY?(q) then NEW else SNOC(REMOVE(q), i)
  (7) SNOC(q, i) = ADD(q, i)
"""

FALLBACK_LINE = 'repro_engine_fallbacks_total{key="codegen_depth"}'


class TestDefaults:
    def test_serve_parses_with_codegen(self):
        parser = build_parser()
        assert parser.parse_args(["serve", "q.spec"]).backend == "codegen"
        args = parser.parse_args(
            ["serve", "q.spec", "--backend", "interpreted"]
        )
        assert args.backend == "interpreted"

    def test_default_server_session_runs_codegen(self):
        with ReproServer(
            [QUEUE_SPEC], registry=_metrics.MetricsRegistry("default-test")
        ) as server:
            assert server.default_session.engine.backend == "codegen"


def _queue(spec, size: int):
    term = app(spec.operation("NEW"))
    for i in range(size):
        term = app(spec.operation("ADD"), term, item(i))
    return term


def _serve(spec_file: Path, *flags: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    daemon = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", str(spec_file),
            "--workers", "2", "--port", "0", *flags,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    banner = daemon.stdout.readline()
    if not banner.startswith("serving "):
        daemon.kill()
        daemon.wait()
        daemon.stdout.close()
        pytest.fail(f"daemon did not start: {banner!r}")
    return daemon, int(banner.rsplit(":", 1)[1])


def _run_batch(spec_file: Path, terms, budget, *flags: str):
    daemon, port = _serve(spec_file, *flags)
    try:
        with ServeClient("127.0.0.1", port, timeout=30.0, retries=0) as client:
            outcomes = client.normalize(terms, spec="Queue", budget=budget)
            metrics = client.metrics()
    finally:
        daemon.send_signal(signal.SIGINT)  # joins the workers too
        daemon.wait(timeout=10)
        daemon.stdout.close()
    return [(o.status, o.term, o.reason) for o in outcomes], metrics


def test_default_daemon_matches_interpreted_daemon(tmp_path):
    spec_file = tmp_path / "deep_queue.spec"
    spec_file.write_text(DEEP_QUEUE)
    spec = parse_specification(DEEP_QUEUE)
    front, remove = spec.operation("FRONT"), spec.operation("REMOVE")
    terms = [
        app(front, app(spec.operation("NEW"))),  # strict error
        app(remove, _queue(spec, 420)),  # past the depth limit
        app(front, _queue(spec, 2000)),  # ~4000 steps: out of fuel
        app(front, _queue(spec, 3)),
    ]
    budget = EvaluationBudget(fuel=3000)
    default, default_metrics = _run_batch(spec_file, terms, budget)
    reference, reference_metrics = _run_batch(
        spec_file, terms, budget, "--backend", "interpreted"
    )
    assert default == reference
    statuses = [status for status, _, _ in default]
    assert statuses == ["error_value", "normalized", "truncated", "normalized"]
    assert default[2][2] == "fuel"
    assert default[3][1] == item(0)
    assert FALLBACK_LINE in default_metrics
    assert FALLBACK_LINE not in reference_metrics
