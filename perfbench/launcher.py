"""Run ``repro serve`` with timing wrappers around each layer.

Usage: ``python3 perfbench/launcher.py SPANS_OUT serve FILE [flags]``.

Installs the wrappers, hands the remaining arguments to the ``repro``
CLI unchanged, and writes the recorded spans to ``SPANS_OUT`` when the
daemon exits (SIGINT).  Wrapped, daemon side:

* the request handler entry (``do_POST``) — the op root; its id is
  ``<client port>:<n>`` for the n-th POST on that connection, which
  the client side counts the same way;
* ``wire.decode_terms`` / ``wire.decode_outcomes`` and
  ``wire.encode_outcomes`` / ``wire.encode_terms`` (the request, the
  response and the chunks shipped to shard workers);
* ``parse_term`` as the server module binds it;
* ``AdmissionController.admit``;
* ``SpecSession.normalize_outcomes`` (the pool call).

Shard workers fork from the daemon and inherit the wrappers; there
they only time ``RewriteEngine.normalize_many_outcomes`` into the
``bench.worker_eval_seconds`` histogram of a registry created here.
Workers ship their registries home with every reply, so the sum shows
up in the daemon's ``/metrics``.  (``engine.eval_seconds`` is not
observed on the interpreted outcome path, so it cannot serve here.)
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from spans import SpanRecorder  # noqa: E402

#: Strong reference: the process-wide registry set is weak.
_REGISTRY = None


def install(recorder: SpanRecorder, sizes: dict) -> None:
    global _REGISTRY
    from repro.obs.metrics import MetricsRegistry
    from repro.parallel import wire
    from repro.rewriting.engine import RewriteEngine
    from repro.serve import admission, server

    daemon = os.getpid()
    lock = threading.Lock()
    posts: dict[int, int] = {}

    def op_of(args) -> str:
        handler = args[0]
        port = handler.client_address[1]
        with lock:
            posts[port] = n = posts.get(port, 0) + 1
        op = f"{port}:{n}"
        sizes[op] = int(handler.headers.get("Content-Length") or 0)
        return op

    wrap = recorder.wrap
    wrap(server._Handler, "do_POST", "serve.handler", root=op_of, pid=daemon)
    for fn in ("decode_terms", "decode_outcomes"):
        wrap(wire, fn, f"wire.{fn}", pid=daemon)
    for fn in ("encode_outcomes", "encode_terms"):
        wrap(wire, fn, f"wire.{fn}", pid=daemon)
    wrap(server, "parse_term", "spec.parse_term", pid=daemon)
    wrap(admission.AdmissionController, "admit", "serve.admit", pid=daemon)
    wrap(server.SpecSession, "normalize_outcomes", "pool.call", pid=daemon)

    _REGISTRY = MetricsRegistry("bench")
    evals = _REGISTRY.histogram(
        "bench.worker_eval_seconds",
        help="shard-worker time inside normalize_many_outcomes",
    )
    original = RewriteEngine.normalize_many_outcomes

    def timed(self, *args, **kwargs):
        if os.getpid() == daemon:
            return original(self, *args, **kwargs)
        start = perf_counter()
        try:
            return original(self, *args, **kwargs)
        finally:
            evals.observe(perf_counter() - start)

    RewriteEngine.normalize_many_outcomes = timed


def main(argv: list[str]) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    recorder, sizes = SpanRecorder(), {}
    install(recorder, sizes)
    from repro import cli

    try:
        return cli.main(cli_args)
    finally:
        recorder.dump(spans_out, request_bytes=sizes)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
