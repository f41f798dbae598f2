"""The rewrite engine: evaluation of terms under a specification.

Two evaluation modes:

* :meth:`RewriteEngine.normalize` — call-by-value evaluation of
  (typically ground) terms.  Arguments are normalised innermost-first;
  ``if-then-else`` evaluates its condition, then *only the selected
  branch* (lazy branches are what make the recursive axioms, e.g.
  ``RETRIEVE'``, terminate); the distinguished ``error`` propagates
  strictly through operations and conditions; operations with builtin
  Python evaluators fire once their arguments are literals.

* :meth:`RewriteEngine.simplify` — symbolic simplification of open
  terms, for the prover.  Like ``normalize``, but when a condition does
  not decide, both branches are simplified in place, and trivial
  conditional identities (``if c then x else x -> x``) are applied.

Value-mode evaluation runs on an explicit work stack rather than the
Python call stack, so a term's depth is bounded by memory, not by the
interpreter recursion limit — a 50k-deep queue drains without touching
``sys.setrecursionlimit``.  Two backends implement the same rewrite
relation: the default ``"interpreted"`` backend walks rules generically,
while ``"compiled"`` (see :mod:`repro.rewriting.compile`) dispatches
through per-operation closures specialised from the rule set.

Evaluation runs under an :class:`~repro.runtime.EvaluationBudget` —
fuel (rewrite steps), an optional wall-clock deadline, and memory caps
— enforced identically by both backends through a shared
:class:`~repro.runtime.BudgetMeter`.  Exceeding any dimension raises
:class:`RewriteLimitError`, whose ``reason`` distinguishes genuine fuel
exhaustion from recursion blow-ups, deadlines, memory caps, and
*cycling* (a periodic rewrite sequence, reported with its minimal
repeating trace).  Callers that cannot afford exceptions use
:meth:`RewriteEngine.normalize_outcome` /
:meth:`RewriteEngine.normalize_many_outcomes`, which degrade gracefully
(compiled → interpreted → partial result) and never abort a batch.
"""

from __future__ import annotations

from collections import OrderedDict
from time import perf_counter
from typing import Iterable, Optional

from repro.algebra.matching import match_bindings
from repro.algebra.sorts import BOOLEAN
from repro.algebra.substitution import apply_bindings
from repro.algebra.terms import App, Err, Ite, Lit, Term, Var
from repro.spec.axioms import Axiom
from repro.spec.errors import AlgebraError
from repro.spec.prelude import boolean_term, is_false, is_true
from repro.spec.specification import Specification
from repro.rewriting.rules import RuleSet
from repro.runtime import faults as _faults
from repro.runtime.budget import (
    DEFAULT_FUEL,
    BudgetExceeded,
    BudgetMeter,
    EvaluationBudget,
    REASON_CYCLE,
    REASON_DEADLINE,
    REASON_DEPTH,
    REASON_FUEL,
    REASON_MEMORY,
)
from repro.runtime.outcome import Outcome
from repro.runtime.render import SUMMARY_LIMIT, summarize_term
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

#: Rendering budget for terms quoted in error messages.  Compat aliases:
#: the canonical helper now lives in :mod:`repro.runtime.render`, shared
#: with trace events so every diagnosis renders subjects identically.
_RENDER_LIMIT = SUMMARY_LIMIT
_render_capped = summarize_term


class RewriteLimitError(Exception):
    """Raised when evaluation exceeds its budget.

    ``reason`` says which dimension gave out (see
    :data:`repro.runtime.budget.REASONS`):

    * ``"fuel"`` — the step budget ran dry on a non-periodic workload;
    * ``"depth"`` — a Python recursion blow-up (subclass hooks such as
      the prover's guarded unfolding may still recurse);
    * ``"deadline"`` — the wall-clock deadline passed;
    * ``"cycle"`` — the rewrite sequence is periodic; ``trace`` holds
      the minimal repeating sequence of rewrite subjects;
    * ``"memory"`` — an intern-table growth cap tripped.
    """

    def __init__(
        self,
        term: Term,
        fuel: int,
        reason: str = REASON_FUEL,
        trace: tuple = (),
        detail: str = "",
    ) -> None:
        rendered = summarize_term(term)
        if reason == REASON_CYCLE:
            loop = ", ".join(summarize_term(t, 40) for t in trace[:4])
            if len(trace) > 4:
                loop += ", ..."
            message = (
                f"evaluation of {rendered} diverges: rewriting cycles "
                f"through {len(trace)} term(s) [{loop}]"
            )
        elif reason == REASON_DEPTH:
            message = f"recursion depth exceeded while evaluating {rendered}"
        elif reason == REASON_DEADLINE:
            message = (
                f"wall-clock deadline exceeded while evaluating {rendered}"
            )
        elif reason == REASON_MEMORY:
            message = (
                f"memory budget exceeded while evaluating {rendered}"
                + (f" ({detail})" if detail else "")
            )
        else:
            message = (
                f"no normal form within {fuel} rewrite steps for {rendered}"
            )
        super().__init__(message)
        self.term = term
        self.fuel = fuel
        self.reason = reason
        self.trace = trace
        self.detail = detail
        tracer = _trace.ACTIVE
        if tracer is not None:
            tracer.event(
                "budget_exhausted",
                reason=reason,
                fuel=fuel,
                subject=rendered,
                detail=detail,
            )


class EngineStats:
    """Engine counters, as views over a per-engine metrics registry.

    Historically a plain dataclass of ints; the counters now live in a
    :class:`repro.obs.metrics.MetricsRegistry` owned by the stats object
    (one per engine), so ``--metrics-out`` and the benchmark driver can
    aggregate every engine in the process without new plumbing.  The old
    attribute API (``stats.steps``, ``stats.cache_hits``,
    ``stats.firings_by_rule``...) is preserved as properties over the
    registry — existing callers and tests keep working — while hot paths
    pre-bind the underlying one-element list slots (``s_steps`` etc.,
    the :class:`~repro.runtime.budget.BudgetMeter` trick) and increment
    ``slot[0]`` with no attribute or method dispatch per event.

    ``rule_firings`` is now *derived* — the sum of the per-rule counter
    family — where the dataclass kept a second, separately incremented
    total that could drift from ``firings_by_rule``.  The family maps
    each :class:`RewriteRule` *object* to its firing count (rules are
    frozen and hashable, so the object itself is the honest key; they
    stringify as ``[label] lhs -> rhs`` in snapshots).
    """

    __slots__ = (
        "registry",
        "s_steps",
        "s_builtin",
        "s_errprop",
        "s_hits",
        "s_probes",
        "s_fuel",
        "firings",
        "fallbacks",
        "outcomes",
        "latency",
        "fuel_hist",
    )

    def __init__(
        self, registry: Optional[_metrics.MetricsRegistry] = None
    ) -> None:
        if registry is None:
            registry = _metrics.MetricsRegistry("engine")
        self.registry = registry
        counter = registry.counter
        self.s_steps = counter(
            "engine.steps", "rewrite steps spent (rule and builtin firings)"
        ).slot
        self.s_builtin = counter(
            "engine.builtin_firings", "builtin operation evaluations"
        ).slot
        self.s_errprop = counter(
            "engine.error_propagations", "strict error-value propagations"
        ).slot
        self.s_hits = counter(
            "engine.memo_hits", "ground normal-form memo probes answered"
        ).slot
        self.s_probes = counter(
            "engine.memo_probes", "ground normal-form memo probes issued"
        ).slot
        self.s_fuel = counter(
            "engine.fuel_spent", "fuel consumed across evaluations"
        ).slot
        self.firings = registry.family(
            "engine.rule_firings", "rule firings per rewrite rule"
        )
        self.fallbacks = registry.family(
            "engine.fallbacks", "backend degradations by kind"
        )
        self.outcomes = registry.family(
            "engine.outcomes", "resilient evaluations by outcome status"
        )
        self.latency = registry.histogram(
            "engine.eval_seconds", help="normalize() wall-clock seconds"
        )
        self.fuel_hist = registry.histogram(
            "engine.fuel_per_eval",
            bounds=_metrics.FUEL_BUCKETS,
            help="fuel consumed per normalize() call",
        )

    # -- compat attribute API (the old dataclass fields) ----------------
    @property
    def steps(self) -> int:
        return self.s_steps[0]

    @steps.setter
    def steps(self, value: int) -> None:
        self.s_steps[0] = value

    @property
    def builtin_firings(self) -> int:
        return self.s_builtin[0]

    @builtin_firings.setter
    def builtin_firings(self, value: int) -> None:
        self.s_builtin[0] = value

    @property
    def error_propagations(self) -> int:
        return self.s_errprop[0]

    @error_propagations.setter
    def error_propagations(self, value: int) -> None:
        self.s_errprop[0] = value

    @property
    def cache_hits(self) -> int:
        return self.s_hits[0]

    @cache_hits.setter
    def cache_hits(self, value: int) -> None:
        self.s_hits[0] = value

    @property
    def cache_probes(self) -> int:
        return self.s_probes[0]

    @cache_probes.setter
    def cache_probes(self, value: int) -> None:
        self.s_probes[0] = value

    @property
    def rule_firings(self) -> int:
        """Total rule firings — derived from the per-rule family, so it
        cannot drift from ``firings_by_rule`` (the old dataclass kept a
        second counter that had to be incremented in lockstep)."""
        return self.firings.total

    @property
    def firings_by_rule(self) -> dict:
        return self.firings.counts

    # -- recording -------------------------------------------------------
    def record_firing(
        self, rule: "RewriteRule", subject: Optional[Term] = None
    ) -> None:
        counts = self.firings.counts
        counts[rule] = counts.get(rule, 0) + 1
        tracer = _trace.ACTIVE
        if tracer is not None and not tracer.never:
            tracer.step(rule, subject)

    def record_fallback(self, kind: str) -> None:
        """One backend degradation (``compiled_to_interpreted`` for the
        outcome ladder, ``compiled_depth`` for the compiled backend's
        deep-recursion rescue)."""
        self.fallbacks.inc(kind)
        tracer = _trace.ACTIVE
        if tracer is not None:
            tracer.event("fallback", kind=kind)

    def record_outcome(self, status: str) -> None:
        self.outcomes.inc(status)

    # -- reading ---------------------------------------------------------
    def firing_count(self, rule: "RewriteRule") -> int:
        return self.firings.get(rule)

    def firing_summary(self, limit: Optional[int] = None) -> str:
        """A repr-stable rendering of the per-rule firing counts:
        busiest rules first, each line ``<count>  <rule>``.  Safe to
        call at any time — the entries hold the rules themselves, so a
        summary never dangles."""
        return self.firings.summary(limit)

    def reset(self) -> None:
        self.registry.reset()

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of memo probes answered from the cache."""
        probes = self.s_probes[0]
        return self.s_hits[0] / probes if probes else 0.0


#: Selectable evaluation backends (see the module docstring).
BACKENDS = ("interpreted", "compiled", "codegen")

# Frame tags for the explicit-stack value-mode evaluator.  Each frame is
# a tuple whose first element is one of these; the machine in
# :meth:`RewriteEngine._eval` documents the payloads.
_F_EVAL = 0
_F_APP_ARG = 1
_F_ITE_COND = 2
_F_ROOT = 3
_F_MEMO = 4
_F_BUILTIN_CONT = 5
_F_INST = 6
_F_INST_ARG = 7
_F_INST_ITE = 8


class RewriteEngine:
    """Evaluates terms under a rule set.

    Parameters
    ----------
    rules:
        The oriented axioms.
    fuel:
        Maximum rewrite steps per ``normalize``/``simplify`` call.
    use_index:
        Rule-lookup strategy.  ``True`` (the default) uses the
        discrimination-tree index (head symbol, then argument shapes);
        ``"head"`` uses the flat per-head-symbol list — the seed
        engine's index; ``False`` scans the whole rule list.  The
        non-default settings exist only for the E10 ablation benchmark.
    cache_size:
        Normal forms of *ground* applications are memoised (the rule set
        is fixed for the engine's lifetime, so a ground term's normal
        form never changes).  Clients like the symbolic façade normalise
        the same growing terms repeatedly, where the cache turns
        re-evaluation into a lookup.  The memo is a bounded LRU keyed on
        interned term identity; overflow evicts the least recently used
        entry.  0 disables caching.
    cache_policy:
        ``"lru"`` (the default) evicts one least-recently-used entry per
        overflowing insert.  ``"clear"`` reproduces the seed engine's
        behaviour — wipe the whole memo when it fills — and exists only
        so the E10 ablation can measure what the LRU fixes.
    backend:
        ``"interpreted"`` (the default) evaluates with the generic
        explicit-stack machine below.  ``"compiled"`` routes
        ``normalize``/``normalize_many`` through per-operation closures
        specialised from the rule set (:mod:`repro.rewriting.compile`);
        both backends compute the same normal forms.  Symbolic
        ``simplify`` always uses the interpreted machinery — open-term
        simplification is not on any hot path.
    budget:
        The default :class:`~repro.runtime.EvaluationBudget` for every
        evaluation.  Supersedes ``fuel`` when given; its
        ``max_memo_entries`` clamps ``cache_size`` (the memo is engine
        state, so its cap binds at construction).  Per-call budgets may
        be passed to the evaluation methods.
    """

    def __init__(
        self,
        rules: RuleSet,
        fuel: int = DEFAULT_FUEL,
        use_index: "bool | str" = True,
        cache_size: int = 4096,
        cache_policy: str = "lru",
        backend: str = "interpreted",
        budget: Optional[EvaluationBudget] = None,
        fusion=None,
    ) -> None:
        if cache_policy not in ("lru", "clear"):
            raise ValueError(f"unknown cache policy: {cache_policy!r}")
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend: {backend!r} (expected one of {BACKENDS})"
            )
        if budget is None:
            budget = EvaluationBudget(fuel=fuel)
        elif budget.max_memo_entries is not None:
            cache_size = min(cache_size, budget.max_memo_entries)
        self.rules = rules
        self.fuel = budget.fuel
        self.budget = budget
        self.use_index = use_index
        self.backend = backend
        self.fusion = fusion  # codegen superinstruction plan (None = auto)
        self.stats = EngineStats()
        self.cache_size = cache_size
        self.cache_policy = cache_policy
        self._cache: "OrderedDict[Term, Term]" = OrderedDict()
        self._compiled = None  # lazily-built CompiledEngine delegate
        self._codegen = None  # lazily-built CodegenEngine delegate
        self._pools: dict = {}  # workers -> ShardPool (None = unavailable)

    @classmethod
    def for_specification(
        cls,
        spec: Specification,
        fuel: int = DEFAULT_FUEL,
        backend: str = "interpreted",
        budget: Optional[EvaluationBudget] = None,
    ) -> "RewriteEngine":
        return cls(
            RuleSet.from_specification(spec),
            fuel=fuel,
            backend=backend,
            budget=budget,
        )

    def _meter(self, budget: Optional[EvaluationBudget]) -> BudgetMeter:
        """A fresh meter for one evaluation: the per-call budget when
        given, else the engine's default adjusted for any
        post-construction ``engine.fuel`` assignment."""
        if budget is None:
            budget = self.budget.with_fuel(self.fuel)
        return budget.start()

    # ------------------------------------------------------------------
    # Value-mode evaluation
    # ------------------------------------------------------------------
    def normalize(
        self, term: Term, budget: Optional[EvaluationBudget] = None
    ) -> Term:
        """The call-by-value normal form of ``term``."""
        if self.backend != "interpreted":
            return self._delegate_engine().normalize(term, budget)
        tracer = _trace.ACTIVE
        if tracer is None or tracer.never:
            # ``never`` guards the eager summarize_term below: a muted
            # tracer must not pay for span attributes it will drop.
            return self._normalize_interpreted(term, budget)
        with tracer.span(
            "engine.normalize",
            backend="interpreted",
            subject=summarize_term(term),
        ):
            return self._normalize_interpreted(term, budget)

    def _normalize_interpreted(
        self, term: Term, budget: Optional[EvaluationBudget]
    ) -> Term:
        meter = self._meter(budget)
        stats = self.stats
        started = perf_counter()
        try:
            return self._eval(term, meter)
        except BudgetExceeded as exc:
            raise RewriteLimitError(
                term,
                meter.budget.fuel,
                reason=exc.reason,
                trace=exc.trace,
                detail=exc.detail,
            ) from None
        except RewriteLimitError as exc:
            raise RewriteLimitError(
                term,
                meter.budget.fuel,
                reason=exc.reason,
                trace=exc.trace,
                detail=exc.detail,
            ) from None
        except RecursionError:
            # The evaluator itself is iterative, but subclass hooks
            # (the prover's guarded unfolding) may still recurse.
            raise RewriteLimitError(
                term, meter.budget.fuel, reason=REASON_DEPTH
            ) from None
        finally:
            stats.latency.observe(perf_counter() - started)
            spent = meter.budget.fuel - meter[0]
            if spent > 0:
                stats.s_fuel[0] += spent
            stats.fuel_hist.observe(spent if spent > 0 else 0)

    def normalize_many(
        self,
        terms: Iterable[Term],
        budget: Optional[EvaluationBudget] = None,
        workers: Optional[int] = None,
    ) -> list[Term]:
        """Normalise a batch of terms against one shared memo.

        Each term gets the full fuel budget, but ground normal forms
        memoised while normalising earlier terms answer probes for the
        later ones — on workloads with shared substructure (the oracle
        checking many instances of the same axioms, the benchmarks
        draining a family of queues) most of the batch is cache hits.

        ``workers=N`` (N > 1) shards the batch across a pool of worker
        processes (:class:`repro.parallel.ShardPool`), preserving input
        order and serial semantics; each worker warms its own engine
        and memo, so cross-item memo sharing becomes shard-local.  If
        the pool cannot be built (unwireable rules, no multiprocessing)
        the batch runs serially, recorded as a ``pool_unavailable``
        fallback in ``stats.fallbacks``.

        The first limit aborts the whole batch; use
        :meth:`normalize_many_outcomes` for fault isolation.
        """
        if workers is not None and workers > 1:
            terms = terms if isinstance(terms, list) else list(terms)
            pool = self._shard_pool(workers)
            if pool is not None and len(terms) > 1:
                return pool.normalize_many(terms, budget)
        if self.backend != "interpreted":
            return self._delegate_engine().normalize_many(terms, budget)
        return [self.normalize(term, budget) for term in terms]

    # ------------------------------------------------------------------
    # Resilient evaluation: outcomes and the degradation ladder
    # ------------------------------------------------------------------
    def normalize_outcome(
        self, term: Term, budget: Optional[EvaluationBudget] = None
    ) -> Outcome:
        """Resilient normalisation: an :class:`~repro.runtime.Outcome`
        instead of an exception.

        Degradation ladder: the compiled backend is tried first (when
        selected); an unexpected runtime failure there — a fault
        injection, a recursion blow-up in generated code — degrades to
        the interpreted machine; a failure *there* yields a partial
        ``truncated`` outcome with the fault as the detail.  Budget
        exhaustion maps to ``truncated`` (or ``diverged`` for a
        diagnosed cycle); reaching the algebra's ``error`` value is the
        *defined* result ``error_value``, not a failure.
        """
        if self.backend != "interpreted":
            try:
                outcome = Outcome.of_normal_form(
                    self._delegate_engine().normalize(term, budget)
                )
            except RewriteLimitError as exc:
                outcome = Outcome.from_limit(exc)
            except Exception:  # fault-boundary: degrade to interpreted
                self.stats.record_fallback(
                    f"{self.backend}_to_interpreted"
                )
                outcome = self._interpreted_outcome(term, budget)
        else:
            outcome = self._interpreted_outcome(term, budget)
        self.stats.record_outcome(outcome.status)
        return outcome

    def _interpreted_outcome(
        self, term: Term, budget: Optional[EvaluationBudget]
    ) -> Outcome:
        """The interpreted rung of the ladder, ending in a partial
        result rather than an exception.  The memo only ever stores
        *completed* normal forms, so a failure part-way leaves the
        caches consistent — the chaos suite holds it to that."""
        meter = self._meter(budget)
        stats = self.stats
        try:
            return Outcome.of_normal_form(self._eval(term, meter))
        except BudgetExceeded as exc:
            return Outcome.from_limit(
                RewriteLimitError(
                    term,
                    meter.budget.fuel,
                    reason=exc.reason,
                    trace=exc.trace,
                    detail=exc.detail,
                )
            )
        except RewriteLimitError as exc:
            return Outcome.from_limit(exc)
        except RecursionError as exc:
            return Outcome(
                "truncated", term=term, reason=REASON_DEPTH, detail=str(exc)
            )
        except Exception as exc:  # fault-boundary: partial result
            return Outcome.of_fault(term, exc)
        finally:
            # Same fuel accounting as normalize(): the outcome path is
            # the one serving takes, and /readyz derives its suggested
            # per-spec budget from this histogram.
            spent = meter.budget.fuel - meter[0]
            if spent > 0:
                stats.s_fuel[0] += spent
            stats.fuel_hist.observe(spent if spent > 0 else 0)

    def normalize_many_outcomes(
        self,
        terms: Iterable[Term],
        budget: Optional[EvaluationBudget] = None,
        workers: Optional[int] = None,
    ) -> list[Outcome]:
        """Fault-isolating batch evaluation: one outcome per term, the
        shared memo still warming across items, and no term — however
        pathological — able to abort its neighbours.  Budgets apply per
        item (each term gets the full budget, deadline included).

        ``workers=N`` shards the batch across worker processes with the
        same per-item semantics — the degradation ladder holds
        shard-locally, and outcome order matches input order."""
        if workers is not None and workers > 1:
            terms = terms if isinstance(terms, list) else list(terms)
            pool = self._shard_pool(workers)
            if pool is not None and len(terms) > 1:
                return pool.normalize_many_outcomes(terms, budget)
        return [self.normalize_outcome(term, budget) for term in terms]

    def _shard_pool(self, workers: int):
        """The cached :class:`~repro.parallel.ShardPool` for ``workers``
        shards, rebuilt when the rule set grew or ``engine.fuel`` was
        adjusted since the pool was built (mirroring the compiled
        delegates).  ``None`` when pooling is unavailable for this
        engine — unwireable rules, no multiprocessing — in which case
        batch calls stay serial (recorded as a ``pool_unavailable``
        fallback, once)."""
        pool = self._pools.get(workers)
        if pool is not None and (
            pool.rule_count != len(self.rules) or pool.fuel != self.fuel
        ):
            pool.close()
            pool = None
            del self._pools[workers]
        if pool is None and workers not in self._pools:
            try:
                from repro.parallel import ShardPool

                pool = ShardPool(
                    self.rules,
                    workers,
                    backend=self.backend,
                    fuel=self.fuel,
                    budget=self.budget,
                    cache_size=self.cache_size,
                    cache_policy=self.cache_policy,
                    use_index=self.use_index,
                    fusion=self.fusion,
                )
            except Exception:  # fault-boundary: unwireable rules -> stay serial
                self.stats.record_fallback("pool_unavailable")
                pool = None
            self._pools[workers] = pool
        return pool

    def close_pools(self) -> None:
        """Shut down (and join) any worker pools this engine spawned."""
        for pool in self._pools.values():
            if pool is not None:
                pool.close()
        self._pools.clear()

    def __enter__(self) -> "RewriteEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        # The context-manager form exists for the pools: an engine that
        # sharded batches must not leave worker processes behind.
        self.close_pools()

    def _compiled_engine(self):
        """The lazily-built compiled delegate, rebuilt if rules were
        added since compilation (the prover grows rule sets in place)."""
        compiled = self._compiled
        if compiled is None or compiled.rule_count != len(self.rules):
            from repro.rewriting.compile import CompiledEngine

            compiled = CompiledEngine(
                self.rules,
                fuel=self.fuel,
                cache_size=self.cache_size,
                stats=self.stats,
                budget=self.budget,
            )
            self._compiled = compiled
        compiled.fuel = self.fuel  # track post-construction adjustments
        return compiled

    def _codegen_engine(self):
        """The lazily-built second-stage (emitted module) delegate."""
        codegen = self._codegen
        if codegen is None or codegen.rule_count != len(self.rules):
            from repro.rewriting.codegen import CodegenEngine

            codegen = CodegenEngine(
                self.rules,
                fuel=self.fuel,
                cache_size=self.cache_size,
                stats=self.stats,
                budget=self.budget,
                fusion=self.fusion,
            )
            self._codegen = codegen
        codegen.fuel = self.fuel  # track post-construction adjustments
        return codegen

    def _delegate_engine(self):
        """The non-interpreted backend selected at construction."""
        if self.backend == "codegen":
            return self._codegen_engine()
        return self._compiled_engine()

    def clear_cache(self) -> None:
        """Drop memoised normal forms (all backends' memos)."""
        self._cache.clear()
        if self._compiled is not None:
            self._compiled.clear_cache()
        if self._codegen is not None:
            self._codegen.clear_cache()

    def _spend(self, budget: BudgetMeter, term: Term) -> None:
        self.stats.s_steps[0] += 1
        budget.spend(term)

    def _eval(self, term: Term, budget: list[int]) -> Term:
        """Value-mode evaluation on an explicit work stack.

        The machine is the defunctionalised form of the obvious
        recursion: a stack of tagged tuple frames plus a ``result``
        register.  ``_F_EVAL`` dispatches on a term; ``_F_APP_ARG`` /
        ``_F_ITE_COND`` collect evaluated children; ``_F_ROOT`` rewrites
        at the root of an argument-normal application (rule selection
        stays behind the :meth:`_match_root` hook, so the prover's
        override keeps working); the ``_F_INST*`` frames fuse rule
        right-hand-side instantiation with normalisation, and
        ``_F_MEMO`` stores ground normal forms once their root pass
        finishes.  Term depth therefore costs heap, not Python stack —
        no recursion-limit fiddling, ever.
        """
        stats = self.stats
        # Pre-bound counter slots: incrementing slot[0] on a local list
        # is the cheapest accounting Python offers (the BudgetMeter
        # trick), and keeps the metrics registry off the hot path.
        s_probes = stats.s_probes
        s_hits = stats.s_hits
        s_errprop = stats.s_errprop
        s_builtin = stats.s_builtin
        cache = self._cache
        cache_on = self.cache_size > 0
        stack: list = [(_F_EVAL, term)]
        result: Term = term
        while stack:
            frame = stack.pop()
            tag = frame[0]
            if tag == _F_EVAL:
                t = frame[1]
                if isinstance(t, App):
                    if cache_on:
                        s_probes[0] += 1
                        cached = cache.get(t)
                        if cached is not None:
                            s_hits[0] += 1
                            cache.move_to_end(t)
                            result = cached
                            continue
                    if t.args:
                        stack.append((_F_APP_ARG, t, [], 1, False))
                        stack.append((_F_EVAL, t.args[0]))
                    else:
                        if cache_on:
                            stack.append((_F_MEMO, t, None))
                        stack.append((_F_ROOT, t))
                elif isinstance(t, Ite):
                    stack.append((_F_ITE_COND, t))
                    stack.append((_F_EVAL, t.cond))
                else:
                    result = t  # Var, Lit, Err: already normal
            elif tag == _F_APP_ARG:
                _, t, done, nxt, changed = frame
                value = result
                if isinstance(value, Err):
                    s_errprop[0] += 1
                    result = Err(t.sort)
                    continue
                if value is not t.args[nxt - 1]:
                    changed = True
                done.append(value)
                if nxt < len(t.args):
                    stack.append((_F_APP_ARG, t, done, nxt + 1, changed))
                    stack.append((_F_EVAL, t.args[nxt]))
                else:
                    node = App(t.op, done) if changed else t
                    if cache_on:
                        stack.append(
                            (_F_MEMO, t, node if node is not t else None)
                        )
                    stack.append((_F_ROOT, node))
            elif tag == _F_ROOT:
                # Rewrite at the root until no step applies; arguments
                # are already normal.  Rule firings continue in _F_INST
                # frames; builtin steps that need re-evaluation continue
                # under a _F_BUILTIN_CONT frame.
                node = frame[1]
                while True:
                    builtin = node.op.builtin
                    if builtin is not None and all(
                        isinstance(a, Lit) for a in node.args
                    ):
                        s_builtin[0] += 1
                        step = self._run_builtin(node)
                        self._spend(budget, node)
                        if isinstance(step, (Var, Lit, Err)):
                            result = step
                            break
                        if isinstance(step, Ite) or not _args_normal(step):
                            stack.append((_F_BUILTIN_CONT,))
                            stack.append((_F_EVAL, step))
                            break
                        if not isinstance(step, App):
                            result = step
                            break
                        if any(isinstance(arg, Err) for arg in step.args):
                            s_errprop[0] += 1
                            result = Err(step.sort)
                            break
                        node = step
                        continue
                    rule, bindings = self._match_root(node, budget)
                    if rule is None:
                        result = node
                        break
                    self._spend(budget, node)
                    stack.append((_F_INST, rule.rhs, bindings))
                    break
            elif tag == _F_BUILTIN_CONT:
                step = result
                if not isinstance(step, App):
                    pass  # already normal; the result stands
                elif any(isinstance(arg, Err) for arg in step.args):
                    s_errprop[0] += 1
                    result = Err(step.sort)
                else:
                    stack.append((_F_ROOT, step))
            elif tag == _F_MEMO:
                _, key, extra = frame
                if key._ground and not isinstance(result, Ite):
                    self._remember(key, result)
                    if extra is not None:
                        # The argument-normalised form shares the normal
                        # form; later evaluations may probe it directly.
                        self._remember(extra, result)
            elif tag == _F_INST:
                # Instantiate a rule right-hand side under its bindings
                # and normalise in one pass.  Bindings come from matching
                # a subject whose arguments are already normal, so they
                # are fixed points of evaluation; only structure the
                # template introduces needs work, the untaken branch of
                # a decided conditional is never constructed at all, and
                # each new application is probed against the memo the
                # moment it exists.
                _, template, bindings = frame
                if isinstance(template, Var):
                    result = bindings[template]
                elif isinstance(template, App):
                    if template.args:
                        stack.append(
                            (_F_INST_ARG, template, bindings, [], 1, False)
                        )
                        stack.append((_F_INST, template.args[0], bindings))
                    else:
                        if cache_on:
                            s_probes[0] += 1
                            cached = cache.get(template)
                            if cached is not None:
                                s_hits[0] += 1
                                cache.move_to_end(template)
                                result = cached
                                continue
                            stack.append((_F_MEMO, template, None))
                        stack.append((_F_ROOT, template))
                elif isinstance(template, Ite):
                    stack.append((_F_INST_ITE, template, bindings))
                    stack.append((_F_INST, template.cond, bindings))
                else:
                    result = template  # Lit or Err
            elif tag == _F_INST_ARG:
                _, template, bindings, done, nxt, changed = frame
                value = result
                if isinstance(value, Err):
                    s_errprop[0] += 1
                    result = Err(template.sort)
                    continue
                if value is not template.args[nxt - 1]:
                    changed = True
                done.append(value)
                if nxt < len(template.args):
                    stack.append(
                        (_F_INST_ARG, template, bindings, done, nxt + 1, changed)
                    )
                    stack.append((_F_INST, template.args[nxt], bindings))
                else:
                    node = App(template.op, done) if changed else template
                    if cache_on:
                        s_probes[0] += 1
                        cached = cache.get(node)
                        if cached is not None:
                            s_hits[0] += 1
                            cache.move_to_end(node)
                            result = cached
                            continue
                        if node._ground:
                            stack.append((_F_MEMO, node, None))
                    stack.append((_F_ROOT, node))
            elif tag == _F_INST_ITE:
                _, template, bindings = frame
                cond = result
                if isinstance(cond, Err):
                    s_errprop[0] += 1
                    result = Err(template.sort)
                elif is_true(cond):
                    stack.append((_F_INST, template.then_branch, bindings))
                elif is_false(cond):
                    stack.append((_F_INST, template.else_branch, bindings))
                else:
                    # Open condition: leave the conditional in place with
                    # plainly substituted (unevaluated) branches, as
                    # value mode demands.
                    result = Ite(
                        cond,
                        apply_bindings(template.then_branch, bindings),
                        apply_bindings(template.else_branch, bindings),
                    )
            else:  # _F_ITE_COND
                t = frame[1]
                cond = result
                if isinstance(cond, Err):
                    s_errprop[0] += 1
                    result = Err(t.sort)
                elif is_true(cond):
                    stack.append((_F_EVAL, t.then_branch))
                elif is_false(cond):
                    stack.append((_F_EVAL, t.else_branch))
                elif cond is t.cond:
                    # Open condition: value-mode evaluation leaves the
                    # node as-is with the evaluated condition in place.
                    result = t
                else:
                    result = Ite(cond, t.then_branch, t.else_branch)
        return result

    def _remember(self, key: Term, value: Term) -> None:
        """Insert into the normal-form memo, evicting the least recently
        used entries once the cache is full (never the whole memo —
        unless the seed ablation policy ``"clear"`` is selected).

        Only *completed* normal forms reach this method, and each insert
        is all-or-nothing, so a fault raised here (the ``engine.remember``
        chaos site) can lose an entry but never poison one.
        """
        cache = self._cache
        if _faults.ACTIVE is not None:
            _faults.ACTIVE.visit("engine.remember", cache)
        if len(cache) >= self.cache_size and key not in cache:
            if self.cache_policy == "clear":
                cache.clear()
            else:
                cache.popitem(last=False)
        cache[key] = value

    def _match_root(self, term: App, budget: list[int]):
        """The first indexed rule matching at the root, with its raw
        bindings; ``(None, None)`` when none match.  ``budget`` is
        unused here but threaded for subclasses whose match decision
        needs speculative evaluation (the prover's guarded unfolding)."""
        if _faults.ACTIVE is not None:
            _faults.ACTIVE.visit("engine.match_root", term)
        for rule in self._candidates(term):
            bindings = match_bindings(rule.lhs, term)
            if bindings is not None:
                self.stats.record_firing(rule, term)
                return rule, bindings
        return None, None

    def _candidates(self, term: App):
        """Rules to try at the root of ``term``, per ``use_index``."""
        if self.use_index is True:
            return self.rules.candidates(term)
        if self.use_index == "head":
            return self.rules.for_head(term.op)
        return self.rules

    def _root_step(self, term: App, budget: list[int]) -> Optional[Term]:
        builtin = term.op.builtin
        if builtin is not None and all(isinstance(a, Lit) for a in term.args):
            self.stats.builtin_firings += 1
            return self._run_builtin(term)
        for rule in self._candidates(term):
            result = rule.apply_at_root(term)
            if result is not None:
                self.stats.record_firing(rule, term)
                return result
        return None

    def _run_builtin(self, term: App) -> Term:
        if _faults.ACTIVE is not None:
            _faults.ACTIVE.visit("engine.builtin", term)
        values = [arg.value for arg in term.args]  # type: ignore[union-attr]
        try:
            result = term.op.builtin(*values)  # type: ignore[misc]
        except AlgebraError:
            return Err(term.sort)
        if term.sort == BOOLEAN and isinstance(result, bool):
            return boolean_term(result)
        if isinstance(result, Term):
            return result
        return Lit(result, term.sort)

    # ------------------------------------------------------------------
    # Symbolic simplification
    # ------------------------------------------------------------------
    def simplify(
        self, term: Term, budget: Optional[EvaluationBudget] = None
    ) -> Term:
        """Simplify an open term as far as the rules allow.

        Both branches of undecided conditionals are simplified, and the
        identity ``if c then x else x = x`` is applied — sound because
        either branch yields ``x``.
        """
        meter = self._meter(budget)
        try:
            return self._simplify(term, meter)
        except BudgetExceeded as exc:
            raise RewriteLimitError(
                term,
                meter.budget.fuel,
                reason=exc.reason,
                trace=exc.trace,
                detail=exc.detail,
            ) from None
        except RecursionError:
            raise RewriteLimitError(
                term, meter.budget.fuel, reason=REASON_DEPTH
            ) from None

    def _simplify(self, term: Term, budget: list[int]) -> Term:
        if isinstance(term, (Var, Lit, Err)):
            return term
        if isinstance(term, Ite):
            cond = self._simplify(term.cond, budget)
            if isinstance(cond, Err):
                self.stats.error_propagations += 1
                return Err(term.sort)
            if is_true(cond):
                return self._simplify(term.then_branch, budget)
            if is_false(cond):
                return self._simplify(term.else_branch, budget)
            then_branch = self._simplify(term.then_branch, budget)
            else_branch = self._simplify(term.else_branch, budget)
            if then_branch == else_branch:
                return then_branch
            if (
                cond is term.cond
                and then_branch is term.then_branch
                and else_branch is term.else_branch
            ):
                return term
            return Ite(cond, then_branch, else_branch)
        assert isinstance(term, App)
        args = []
        changed = False
        for arg in term.args:
            value = self._simplify(arg, budget)
            if isinstance(value, Err):
                self.stats.error_propagations += 1
                return Err(term.sort)
            if value is not arg:
                changed = True
            args.append(value)
        node = App(term.op, args) if changed else term
        step = self._root_step(node, budget)
        if step is None:
            return node
        self._spend(budget, node)
        return self._simplify(step, budget)

    # ------------------------------------------------------------------
    # Equality under the rules
    # ------------------------------------------------------------------
    def equal(self, left: Term, right: Term) -> bool:
        """True when both terms normalise to the same normal form."""
        return self.normalize(left) == self.normalize(right)

    def check_axiom_instance(self, axiom: Axiom, substitution) -> bool:
        """Evaluate both sides of ``axiom`` under ``substitution`` and
        compare normal forms — the ground model check used throughout the
        analysis and verification layers."""
        return self.equal(
            substitution.apply(axiom.lhs), substitution.apply(axiom.rhs)
        )


def _args_normal(term: Term) -> bool:
    """Cheap test used to avoid re-walking already-normal arguments.
    (``all`` over an empty argument tuple is already True, so nullary
    applications need no special case.)"""
    if not isinstance(term, App):
        return True
    return all(isinstance(arg, (Var, Lit, Err)) for arg in term.args)
