"""Sharded parallel evaluation: a pool of worker-process engines.

Hash consing and memo tables are per-process, so worker processes are
naturally isolated *shards*: each worker owns its intern table, its
discrimination-tree shape memo, and one warm
:class:`~repro.rewriting.engine.RewriteEngine` per rule-set
fingerprint.  A :class:`ShardPool` deals a batch out in strided
shares — worker ``k`` of the ``n`` it holds gets ``terms[k::n]`` —
ships each share over the :mod:`repro.parallel.wire` format (terms
re-intern on arrival), and scatters the replies back into input order
— callers observe exactly the serial contract:

* ``normalize_many``: results in input order; the first limit (by item
  index) raises the same :class:`RewriteLimitError` serial evaluation
  would have raised: each share stops at its first limit and reports
  its index, and the one with the smallest input index is raised.
* ``normalize_many_outcomes``: one :class:`Outcome` per term, in input
  order, with per-item budgets and the fault-isolation ladder applied
  *shard-locally* — a pathological term truncates its own outcome, not
  its neighbours, exactly as in-process.

Transport: every worker is a persistent process that owns one duplex
:func:`multiprocessing.Pipe`.  The thread running a batch checks idle
workers out of the pool (at most one per item), writes each one its
share straight down its pipe, and waits on the replies with
:func:`multiprocessing.connection.wait`, handing each worker back as
soon as it answers.  That is one round trip per worker per batch, no
helper thread stands between the caller and the workers, and two
concurrent batches never share a pipe: each takes whichever workers
are free.  Striding rather than cutting contiguous blocks keeps the
shares even when per-item cost grows along the batch (a drain whose
item ``j`` costs about ``j`` splits 1:3 in halves, about 1:1 strided).

Each pool holds a :class:`~repro.parallel.wire.OperationTable` made
from its rules, and hands it to its workers: replies decode through
it, and each worker decodes its rule set and every share through its
copy, so terms carry the rules' own ``Operation`` objects (under fork
the very objects of the parent) and interning and rule dispatch
compare them by identity.

Observability crosses the boundary too: every reply carries the
cumulative counts of every live registry in the worker (its engine
counters, rule-firing family, substrate intern/memo rates, and any
registry inherited through fork), summed but unsorted by
:func:`repro.obs.metrics.collect`.  The pool keeps the latest per
worker and sorts and merges them only when read
(:meth:`ShardPool.metrics_snapshot`), and registers itself with
:func:`repro.obs.metrics.register_snapshot_source` so the process-wide
:func:`~repro.obs.metrics.aggregate_snapshot` — and therefore the CLI's
``--metrics-out`` and the daemon's ``/metrics`` — stays honest under
sharding.

Failure posture: losing the pool must never lose the batch.  A dead
worker (its pipe reads EOF), an exception inside a worker, an
unpicklable payload, or a platform without multiprocessing degrades
the affected shares (and every later batch) to a parent-side serial
engine, recorded under the ``parallel.degradations`` counter family.

Shutdown: :meth:`ShardPool.close` sends every worker a stop message
and joins it, bounded — a worker still running after the timeout is
killed.  An :mod:`atexit` sweep closes every live pool the same way,
so no worker outlives its parent.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import signal
import threading
import time
import weakref
from contextlib import nullcontext
from multiprocessing.connection import wait as _wait_readable
from typing import Iterable, Optional

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.parallel import wire
from repro.rewriting.engine import RewriteEngine, RewriteLimitError
from repro.rewriting.rules import RuleSet
from repro.runtime import faults as _faults
from repro.runtime.budget import EvaluationBudget
from repro.runtime.outcome import Outcome

__all__ = ["ShardPool", "close_all_pools"]

#: How long :meth:`ShardPool.close` waits for batches in flight to hand
#: their workers back, and then for stopped workers to exit, before it
#: kills what is still running.
_CLOSE_TIMEOUT = 2.0
#: How long a starting worker may take to build its engine and report.
_START_TIMEOUT = 60.0

#: Every live pool, so interpreter exit can reap worker processes even
#: when a caller forgot ``close()``.  Weak references: a pool's own
#: ``__del__`` stays the normal cleanup path.
_LIVE_POOLS: "weakref.WeakSet[ShardPool]" = weakref.WeakSet()


def close_all_pools() -> None:
    """Close every live :class:`ShardPool` in the process.

    Registered with :mod:`atexit`, so no worker process outlives its
    parent — a daemon that dies without running its shutdown path must
    not leave orphaned shard workers behind.  Each close joins its
    workers, making "they are gone" observable rather than eventual.
    """
    for pool in list(_LIVE_POOLS):
        pool.close()


atexit.register(close_all_pools)


def _evaluate_share(engine, terms: list, budget, mode: str) -> dict:
    """One share, evaluated alike in a worker and parent-side:
    ``{"values": [...]}``, or in ``normalize`` mode the first limit as
    ``{"limit": exc, "at": i}`` with ``i`` its index in the share."""
    if mode == "outcomes":
        return {"values": engine.normalize_many_outcomes(terms, budget)}
    values: list = []
    try:
        for term in terms:
            values.append(engine.normalize(term, budget))
    except RewriteLimitError as exc:
        return {"limit": exc, "at": len(values)}
    return {"values": values}


def _encode_limit(exc: RewriteLimitError) -> dict:
    enc = wire.TermTableEncoder()
    return {
        **enc.tables(),
        "term": enc.term_id(exc.term),
        "fuel": exc.fuel,
        "reason": exc.reason,
        "trace": [enc.term_id(t) for t in exc.trace],
        "detail": exc.detail,
    }


def _decode_limit(payload: dict) -> RewriteLimitError:
    nodes = wire.decode_nodes(payload)
    return RewriteLimitError(
        nodes[payload["term"]],
        payload["fuel"],
        reason=payload["reason"],
        trace=tuple(nodes[i] for i in payload["trace"]),
        detail=payload["detail"],
    )


class _Worker:
    """One shard worker: its process and the parent's end of its pipe."""

    __slots__ = ("process", "conn")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn


def _send_stop(workers: list[_Worker]) -> None:
    """Ask idle workers to exit; a dead one is left for the join."""
    for worker in workers:
        try:
            worker.conn.send(None)
        except OSError:
            pass  # already dead


class ShardPool:
    """Worker-process evaluation for one rule set + engine configuration.

    The pool is bound at construction: rules, backend, default budget,
    memo size.  Each worker builds an engine for that
    configuration once (keyed by the rule set's structural fingerprint)
    and reuses it across batches.  Workers are lazy — no
    processes exist until the first batch (or :meth:`warm`) — and
    persistent: each owns one duplex pipe to the parent, and a batch
    checks idle workers out, sends each one strided share over its
    pipe, and checks each back in as it answers, so concurrent batches
    from several threads share the workers but never a pipe.
    :meth:`close` stops and joins them, bounded.

    ``fault_injector`` is for the chaos suite: a picklable
    :class:`~repro.runtime.faults.FaultInjector` installed in every
    worker, so the fault-isolation ladder can be exercised
    shard-locally.  Note that probabilistic injectors draw from a
    per-process seeded stream, so only ``probability=1.0`` plans are
    shard-invariant.
    """

    def __init__(
        self,
        rules: RuleSet,
        workers: int,
        *,
        backend: str = "interpreted",
        budget: Optional[EvaluationBudget] = None,
        cache_size: int = 4096,
        mp_context: Optional[str] = None,
        fault_injector=None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.rules = rules
        self.rule_count = len(rules)
        self._options = {
            "backend": backend,
            "budget": wire.encode_budget(budget),
            "cache_size": cache_size,
        }
        # The worker-side engine cache key: the structural rule-set
        # fingerprint with every engine option folded in, so two pools
        # over the same rules but different configurations never share
        # a warm engine by accident.
        self.key = rules.fingerprint(
            extra="shard-pool-v1;" + repr(sorted(self._options.items()))
        )
        # Encoding the rule set now surfaces unwireable rules (lambda
        # builtins, exotic literals) in the constructor, where the
        # caller can still choose serial evaluation.
        self._spec_wire = {
            **self._options,
            "key": self.key,
            "rules": wire.encode_ruleset(rules),
        }
        # Replies decode through this table to the rules' own
        # operation objects; each worker decodes its rule set and its
        # shares through its own copy (the same objects, under fork).
        self._table = wire.OperationTable(
            wire.rule_operations(rules), imports=True
        )
        self._fault_injector = fault_injector
        self._mp_context = mp_context
        # Worker bookkeeping.  ``_workers`` holds every started worker
        # until close() reaps it; ``_idle`` those free to check out;
        # ``_checked_out`` counts the ones batches hold right now.
        # ``_cond`` guards the three and ``_broken``, and wakes batches
        # waiting for a worker when one is checked in or the pool
        # degrades.
        self._owner_pid = os.getpid()
        self._start_lock = threading.Lock()
        self._started = False
        self._cond = threading.Condition()
        self._workers: list[_Worker] = []
        self._idle: list[_Worker] = []
        self._checked_out = 0
        self._broken = False
        self._serial: Optional[RewriteEngine] = None
        # Engines are not thread-safe; a daemon's request threads can
        # reach the serial fallback concurrently after degradation.
        self._serial_lock = threading.Lock()
        self._worker_snapshots: dict[int, dict] = {}
        registry = _metrics.MetricsRegistry("parallel")
        self._registry = registry
        self.c_batches = registry.counter(
            "parallel.batches", "batches dispatched through the shard pool"
        )
        self.c_chunks = registry.counter(
            "parallel.chunks", "shares shipped to worker processes"
        )
        self.c_items = registry.counter(
            "parallel.items", "terms evaluated via the shard pool"
        )
        self.c_serial_items = registry.counter(
            "parallel.serial_items",
            "terms evaluated parent-side after pool degradation",
        )
        self.degradations = registry.family(
            "parallel.degradations",
            "pool->serial degradations by cause",
        )
        _metrics.register_snapshot_source(self)
        _LIVE_POOLS.add(self)

    # -- lifecycle ------------------------------------------------------
    def _ensure_workers(self) -> bool:
        """Start the workers on first use.  False once the pool is
        broken (or closed): the caller evaluates serially."""
        if not self._started and not self._broken:
            with self._start_lock:
                if not self._started and not self._broken:
                    self._start_workers()
                    self._started = True
        return not self._broken

    def _start_workers(self) -> None:
        started: list[_Worker] = []
        try:
            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context(
                self._mp_context or ("fork" if "fork" in methods else methods[0])
            )
            forked = context.get_start_method() == "fork"
            for index in range(self.workers):
                parent_end, child_end = context.Pipe()
                process = context.Process(
                    target=_worker_main,
                    args=(
                        child_end,
                        parent_end if forked else None,
                        self._spec_wire,
                        self._table,
                        self._fault_injector,
                    ),
                    name=f"repro-shard-{index}",
                    daemon=True,
                )
                process.start()
                # Only the worker may hold the child end: once it dies,
                # its pipe must read EOF here rather than stay open.
                child_end.close()
                started.append(_Worker(process, parent_end))
        except Exception:  # fault-boundary: no usable multiprocessing -> serial
            self._degrade("pool_unavailable")
        else:
            for worker in started:
                # Each worker reports its pid once its engine is built.
                try:
                    ready = (
                        worker.conn.poll(_START_TIMEOUT)
                        and worker.conn.recv() == worker.process.pid
                    )
                except (EOFError, OSError):
                    ready = False
                if not ready:
                    self._degrade("warm_failed")
                    break
        # Even after a failed start every worker goes on the books, so
        # close() stops and reaps what did start; a broken pool checks
        # nothing out.
        with self._cond:
            self._workers = started
            self._idle.extend(started)
            self._cond.notify_all()

    def warm(self) -> list[int]:
        """Start every worker and wait until each has built its engine;
        returns the worker pids.  Benchmarks call this so measurements
        cover evaluation and wire traffic, not process start-up."""
        if not self._ensure_workers():
            return []
        return sorted(worker.process.pid for worker in self._workers)

    def close(self) -> None:
        """Stop and join the worker processes.  Later batches run
        serially parent-side; the last shipped worker snapshots remain
        merged in :meth:`metrics_snapshot`.

        Bounded: batches still holding workers get ``_CLOSE_TIMEOUT``
        seconds to hand them back, idle workers get a stop message and
        as long again to exit, and whatever still runs is killed — so
        every worker is gone when this returns, including ones a
        degradation abandoned earlier.
        """
        if os.getpid() != self._owner_pid:
            return  # a forked child's copy: the workers are the parent's
        with self._cond:
            self._broken = True
            self._cond.notify_all()
            self._cond.wait_for(
                lambda: self._checked_out == 0, _CLOSE_TIMEOUT
            )
            workers, self._workers = self._workers, []
            idle, self._idle = self._idle, []
        _send_stop(idle)
        deadline = time.monotonic() + _CLOSE_TIMEOUT
        for worker in workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
        for worker in workers:
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(_CLOSE_TIMEOUT)
        for worker in idle:
            worker.conn.close()

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        # Never blocks: an unreachable pool has no batch in flight, so
        # its idle workers just get their stop message; multiprocessing
        # reaps the exited processes later.
        try:
            if os.getpid() != self._owner_pid:
                return
            self._broken = True
            _send_stop(self._idle)
            for worker in self._idle:
                worker.conn.close()
        except Exception:  # fault-boundary: interpreter teardown order
            pass

    # -- degradation ----------------------------------------------------
    def _degrade(self, cause: str) -> None:
        """Send this and every later batch to the serial engine.
        Never blocks on workers: the ones it abandons are reaped by a
        later :meth:`close`."""
        self.degradations.inc(cause)
        with self._cond:
            self._broken = True
            self._cond.notify_all()

    def _serial_engine(self) -> RewriteEngine:
        engine = self._serial
        if engine is None:
            opts = self._options
            engine = self._serial = RewriteEngine(
                self.rules,
                cache_size=opts["cache_size"],
                backend=opts["backend"],
                budget=wire.decode_budget(opts["budget"]),
            )
        return engine

    def _serial_share(self, terms, budget, mode) -> dict:
        self.c_serial_items.inc(len(terms))
        with self._serial_lock:
            return _evaluate_share(self._serial_engine(), terms, budget, mode)

    # -- dispatch -------------------------------------------------------
    def _checkout(self, wanted: int) -> list[_Worker]:
        """Up to ``wanted`` idle workers, waiting for the first one;
        empty once the pool is broken."""
        with self._cond:
            while not self._idle and not self._broken:
                self._cond.wait()
            if self._broken:
                return []
            taken = self._idle[-wanted:]
            del self._idle[-wanted:]
            self._checked_out += len(taken)
            return taken

    def _checkin(self, worker: _Worker, alive: bool = True) -> None:
        """Hand a worker back.  A dead one (or one whose pipe still
        holds an unread reply) never serves again."""
        with self._cond:
            self._checked_out -= 1
            if alive:
                self._idle.append(worker)
            self._cond.notify_all()
        if not alive:
            worker.conn.close()

    def _run_batch(self, terms: list, budget, mode: str) -> list:
        self.c_batches.inc()
        self.c_items.inc(len(terms))
        tracer = _trace.ACTIVE
        span_scope = (
            tracer.span(
                "parallel.batch",
                mode=mode,
                items=len(terms),
                workers=self.workers,
            )
            if tracer is not None
            else nullcontext()
        )
        with span_scope as batch_span:
            return self._dispatch_batch(
                terms, budget, mode, tracer, batch_span
            )

    def _dispatch_batch(
        self, terms: list, budget, mode: str, tracer, batch_span
    ) -> list:
        # ``batch_span`` is not None only when this batch is being
        # recorded; then workers arm a child tracer per share and ship
        # their span batches home for merging under the batch span.
        traced = batch_span is not None
        if not terms:
            return []
        workers = (
            self._checkout(len(terms)) if self._ensure_workers() else []
        )
        # No worker: the whole batch is one share, evaluated serially.
        stride = max(1, len(workers))
        replies = (
            self._exchange(workers, terms, budget, mode, traced)
            if workers
            else [None]
        )
        results: list = [None] * len(terms)
        first_limit = None  # (input index, exception)
        for k, reply in enumerate(replies):
            if reply is None:
                share = self._serial_share(terms[k::stride], budget, mode)
            elif "limit" in reply:
                share = {**reply, "limit": _decode_limit(reply["limit"])}
            elif mode == "outcomes":
                share = {
                    "values": wire.decode_outcomes(reply["values"], self._table)
                }
            else:
                share = {
                    "values": wire.decode_terms(reply["values"], self._table)
                }
            if traced and reply is not None and reply.get("spans"):
                tracer.merge_remote_spans(
                    wire.decode_spans(reply["spans"]),
                    parent=batch_span,
                    pid=reply["pid"],
                )
            if "limit" in share:
                # Each share stops at its first limit, so the smallest
                # input index among them is where serial evaluation
                # would have stopped.
                index = k + share["at"] * stride
                if first_limit is None or index < first_limit[0]:
                    first_limit = (index, share["limit"])
            else:
                results[k::stride] = share["values"]
        if first_limit is not None:
            raise first_limit[1]
        return results

    def _exchange(
        self, workers: list, terms: list, budget, mode, traced
    ) -> list:
        """Send worker ``k`` of the ``n`` checked out the share
        ``terms[k::n]`` and wait for every reply, checking each worker
        back in as soon as it answers.

        Returns one reply per worker, in worker order.  ``None`` marks a
        share the caller must evaluate serially: its worker died or
        raised, or it could not be shipped.
        """
        n = len(workers)
        budget_wire = wire.encode_budget(budget)
        replies: list = [None] * n
        running: dict = {}  # connection -> (worker, share index)
        sent = 0
        try:
            for k, worker in enumerate(workers):
                sent = k + 1
                try:
                    payload = wire.encode_terms(terms[k::n])
                    worker.conn.send(
                        (self.key, mode, payload, budget_wire, traced)
                    )
                except OSError:  # the worker is gone: a broken pipe
                    self._degrade("worker_died")
                    self._checkin(worker, alive=False)
                    continue
                except Exception:  # fault-boundary: unshippable share -> serial for this share
                    self._degrade("submit_failed")
                    self._checkin(worker)
                    continue
                running[worker.conn] = (worker, k)
            self.c_chunks.inc(len(running))
            while running:
                for conn in _wait_readable(list(running)):
                    worker, k = running.pop(conn)
                    try:
                        reply = conn.recv()
                    except (EOFError, OSError):  # the worker died mid-share
                        self._degrade("worker_died")
                        self._checkin(worker, alive=False)
                        continue
                    self._checkin(worker)
                    if "error" in reply:
                        # The worker raised; it is alive and its pipe
                        # is clean, but the share runs serially.
                        self._degrade("worker_died")
                    else:
                        replies[k] = reply
                        self._worker_snapshots[reply["pid"]] = reply[
                            "snapshot"
                        ]
        finally:
            for worker in workers[sent:]:
                self._checkin(worker)
            if running:
                # Something escaped mid-exchange: these pipes still
                # hold unread replies, so their workers cannot serve
                # again, and the pool is short of them from now on.
                self._degrade("worker_died")
                for worker, _ in running.values():
                    self._checkin(worker, alive=False)
        return replies

    # -- the serial-contract entry points -------------------------------
    def normalize_many(
        self,
        terms: Iterable,
        budget: Optional[EvaluationBudget] = None,
    ) -> list:
        """Batch value-mode normalisation with serial semantics (first
        limit raises), sharded across the workers."""
        terms = terms if isinstance(terms, list) else list(terms)
        return self._run_batch(terms, budget, "normalize")

    def normalize_many_outcomes(
        self,
        terms: Iterable,
        budget: Optional[EvaluationBudget] = None,
    ) -> list[Outcome]:
        """Fault-isolating batch evaluation, sharded across the
        workers; one outcome per term, in input order."""
        terms = terms if isinstance(terms, list) else list(terms)
        return self._run_batch(terms, budget, "outcomes")

    # -- observability --------------------------------------------------
    def metrics_snapshot(self) -> dict:
        """The merged metrics shipped home by the workers.

        Counters, histograms and counter families (rule firings,
        fallbacks, outcome statuses) sum across workers; gauges are
        dropped — they describe worker-process state (live intern-table
        size) that has no meaningful process-wide sum.  Registered as a
        snapshot source, so :func:`repro.obs.metrics.aggregate_snapshot`
        folds this in automatically.
        """
        merged = _metrics.merge_snapshots(list(self._worker_snapshots.values()))
        merged["gauges"] = {}
        return merged


# ----------------------------------------------------------------------
# Worker-process side
# ----------------------------------------------------------------------
# One engine per spec key, built before the worker reports ready and
# reused across every share the worker ever receives.  With the fork
# start method the child inherits the parent's interned terms, module
# caches (the codegen module cache is lock-guarded for exactly this
# reason) and the pool's operation table; with spawn it starts cold.
# Either way the metrics registries are reset after the engine is
# built, so shipped counts measure evaluation work only — not inherited
# parent history, not engine construction.

_WORKER_SPECS: dict[str, dict] = {}
_WORKER_TABLES: dict[str, wire.OperationTable] = {}
_WORKER_ENGINES: dict[str, RewriteEngine] = {}


def _worker_main(
    conn, parent_end, spec_wire: dict, table, fault_injector
) -> None:
    """A worker's life: build the engine, report the pid, then answer
    shares over ``conn`` until the stop message (``None``) or EOF."""
    if parent_end is not None:
        # The parent's end of this pipe, inherited through fork: holding
        # it would keep the parent's death from reading as EOF here.
        parent_end.close()
    # Ctrl-C reaches the whole process group; stopping is the parent's
    # decision, delivered by close() as a stop message.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _worker_init(spec_wire, table, fault_injector)
    try:
        conn.send(os.getpid())
        while (message := conn.recv()) is not None:
            try:
                reply = _worker_run(*message)
            except Exception as exc:  # fault-boundary: the parent evaluates this share serially
                reply = {"error": f"{type(exc).__name__}: {exc}"}
            conn.send(reply)
    except (EOFError, OSError):
        pass  # the parent is gone


def _worker_init(spec_wire: dict, table, fault_injector=None) -> None:
    _WORKER_SPECS[spec_wire["key"]] = spec_wire
    _WORKER_TABLES[spec_wire["key"]] = table
    # Tracing stays parent-side: a forked copy of the parent's tracer
    # would record spans that nobody reads.
    _trace.ACTIVE = None
    if fault_injector is not None:
        _faults.install(fault_injector)
    _worker_engine(spec_wire["key"])
    for registry in list(_metrics._REGISTRIES):
        registry.reset()


def _worker_engine(key: str) -> RewriteEngine:
    engine = _WORKER_ENGINES.get(key)
    if engine is None:
        spec = _WORKER_SPECS[key]
        engine = RewriteEngine(
            wire.decode_ruleset(spec["rules"], _WORKER_TABLES[key]),
            cache_size=spec["cache_size"],
            backend=spec["backend"],
            budget=wire.decode_budget(spec["budget"]),
        )
        if spec["backend"] != "interpreted":
            engine.compiled_rules()  # generate the module now
        _WORKER_ENGINES[key] = engine
    return engine


def _worker_share(engine, terms, budget, mode) -> dict:
    reply = _evaluate_share(engine, terms, budget, mode)
    if "limit" in reply:
        reply["limit"] = _encode_limit(reply["limit"])
    elif mode == "outcomes":
        reply["values"] = wire.encode_outcomes(reply["values"])
    else:
        reply["values"] = wire.encode_terms(reply["values"])
    return reply


def _worker_run(
    key: str, mode: str, payload: dict, budget_wire, traced: bool = False
) -> dict:
    engine = _worker_engine(key)
    terms = wire.decode_terms(payload, _WORKER_TABLES[key])
    budget = wire.decode_budget(budget_wire)
    if traced:
        # The parent recorded this batch, so re-arm a share-lifetime
        # child tracer (the initializer disarmed tracing: a forked copy
        # of the parent's tracer would record spans that nobody
        # reads).  Its span records ship home in the reply; the parent
        # re-parents them under its batch span.
        tracer = _trace.Tracer(sample=1.0)
        with _trace.tracing(tracer):
            with tracer.span(
                "worker.chunk", pid=os.getpid(), mode=mode, items=len(terms)
            ):
                reply = _worker_share(engine, terms, budget, mode)
        reply["spans"] = tracer.spans
    else:
        reply = _worker_share(engine, terms, budget, mode)
    # Cumulative since worker start: the parent keeps the latest
    # snapshot per pid, so re-shipping the running total keeps the
    # merge idempotent across shares.  Every live registry goes, the
    # ones inherited through fork included (reset to zero at start);
    # unsorted, since the parent sorts only when somebody reads.
    reply["snapshot"] = _metrics.collect()
    reply["pid"] = os.getpid()
    return reply
