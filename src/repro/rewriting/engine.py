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
  Results are memoised per engine, open terms included.

Value-mode evaluation runs on an explicit work stack rather than the
Python call stack, so a term's depth is bounded by memory, not by the
interpreter recursion limit — a 50k-deep queue drains without touching
``sys.setrecursionlimit``.  Two backends implement the same rewrite
relation on that one machine, which walks every subject and probes the
memo on both: the default ``"interpreted"`` backend rewrites at the
root by matching rules generically and is the reference, while
``"codegen"`` takes the root step through a function generated from
the rule set (see :mod:`repro.rewriting.codegen`).  Either way there is
one engine object per rule set.

Evaluation runs under an :class:`~repro.runtime.EvaluationBudget` —
fuel (rewrite steps), an optional wall-clock deadline, and an optional
intern-growth cap — enforced identically by both backends through a
shared :class:`~repro.runtime.BudgetMeter`.  Exceeding any dimension raises
:class:`RewriteLimitError`, whose ``reason`` distinguishes genuine fuel
exhaustion from recursion blow-ups, deadlines, memory caps, and
*cycling* (a periodic rewrite sequence, reported with its minimal
repeating trace).  Callers that cannot afford exceptions use
:meth:`RewriteEngine.normalize_outcome` /
:meth:`RewriteEngine.normalize_many_outcomes`, which degrade gracefully
(codegen → interpreted → partial result) and never abort a batch.
"""

from __future__ import annotations

from collections import OrderedDict
from time import perf_counter
from typing import Iterable, Optional

from repro.algebra.matching import match_bindings
from repro.algebra.sorts import BOOLEAN
from repro.algebra.substitution import apply_bindings
from repro.algebra.terms import App, Err, Ite, Lit, Term, Var
from repro.spec.errors import AlgebraError
from repro.spec.prelude import boolean_term, is_false, is_true
from repro.spec.specification import Specification
from repro.rewriting.codegen import (
    CodegenRules,
    _DeepRecursion,
    _LimitHit,
    codegen_module,
)
from repro.rewriting.rules import RuleSet
from repro.runtime import faults as _faults
from repro.runtime.budget import (
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
from repro.runtime.render import summarize_term
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace


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
    ``stats.firings_by_rule``...) is preserved as read-only properties
    over the registry — existing callers and tests keep working — while
    hot paths pre-bind the underlying one-element list slots (``s_steps`` etc.,
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
        "s_simp_hits",
        "s_simp_probes",
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
        self.s_simp_hits = counter(
            "engine.simplify_memo_hits", "simplify memo probes answered"
        ).slot
        self.s_simp_probes = counter(
            "engine.simplify_memo_probes", "simplify memo probes issued"
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
            "engine.eval_seconds", help="wall-clock seconds per evaluation"
        )
        self.fuel_hist = registry.histogram(
            "engine.fuel_per_eval",
            bounds=_metrics.FUEL_BUCKETS,
            help="fuel consumed per evaluation",
        )

    # -- compat attribute API (the old dataclass fields) ----------------
    @property
    def steps(self) -> int:
        return self.s_steps[0]

    @property
    def builtin_firings(self) -> int:
        return self.s_builtin[0]

    @property
    def error_propagations(self) -> int:
        return self.s_errprop[0]

    @property
    def cache_hits(self) -> int:
        return self.s_hits[0]

    @property
    def cache_probes(self) -> int:
        return self.s_probes[0]

    @property
    def simplify_hits(self) -> int:
        return self.s_simp_hits[0]

    @property
    def simplify_probes(self) -> int:
        return self.s_simp_probes[0]

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
        """One backend degradation (``codegen_to_interpreted`` for the
        outcome ladder, ``codegen_depth`` for the generated module's
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
BACKENDS = ("interpreted", "codegen")

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
_F_COMPILED = 9


class RewriteEngine:
    """Evaluates terms under a rule set.

    Parameters
    ----------
    rules:
        The oriented axioms.
    cache_size:
        Normal forms of *ground* applications are memoised (the rule set
        is fixed for the engine's lifetime, so a ground term's normal
        form never changes).  Clients like the symbolic façade normalise
        the same growing terms repeatedly, where the cache turns
        re-evaluation into a lookup.  The memo is a bounded LRU keyed on
        interned term identity; overflow evicts the least recently used
        entry.  ``simplify`` keeps a second LRU of the same bound, of
        open as well as ground terms.  0 disables both memos.  It is the
        only memo bound: on the codegen backend the per-operation memos
        share it too.
    backend:
        ``"interpreted"`` (the default) evaluates with the generic
        explicit-stack machine below.  ``"codegen"`` runs the same
        machine with this engine's compiled rules (:meth:`compiled_rules`,
        a module generated from the rule set by
        :mod:`repro.rewriting.codegen`) as its root step; both backends
        compute the same normal forms under one budget wrapper.
        Symbolic ``simplify`` always uses the interpreted machinery —
        open-term simplification is not on any hot path.
    budget:
        The one limit an engine takes: the default
        :class:`~repro.runtime.EvaluationBudget` (fuel, deadline, intern
        growth) for every ``normalize``/``simplify`` call that passes no
        budget of its own.  Omitted, it is ``EvaluationBudget()``.
    """

    def __init__(
        self,
        rules: RuleSet,
        *,
        cache_size: int = 4096,
        backend: str = "interpreted",
        budget: Optional[EvaluationBudget] = None,
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend: {backend!r} (expected one of {BACKENDS})"
            )
        self.rules = rules
        self.budget = budget if budget is not None else EvaluationBudget()
        self.backend = backend
        self.stats = EngineStats()
        self.cache_size = cache_size
        self._cache: "OrderedDict[Term, Term]" = OrderedDict()
        self._simplified: "OrderedDict[Term, Term]" = OrderedDict()
        self._compiled: Optional[CodegenRules] = None  # built on first use

    @classmethod
    def for_specification(
        cls,
        spec: Specification,
        *,
        backend: str = "interpreted",
        budget: Optional[EvaluationBudget] = None,
    ) -> "RewriteEngine":
        return cls(
            RuleSet.from_specification(spec), backend=backend, budget=budget
        )

    def _meter(self, budget: Optional[EvaluationBudget]) -> BudgetMeter:
        """A fresh meter for one evaluation: the per-call budget when
        given, else the engine's default."""
        return (budget or self.budget).start()

    # ------------------------------------------------------------------
    # Value-mode evaluation
    # ------------------------------------------------------------------
    def normalize(
        self, term: Term, budget: Optional[EvaluationBudget] = None
    ) -> Term:
        """The call-by-value normal form of ``term``."""
        return self._evaluate(term, budget, self.backend == "codegen")

    def normalize_many(
        self,
        terms: Iterable[Term],
        budget: Optional[EvaluationBudget] = None,
    ) -> list[Term]:
        """Normalise a batch of terms against one shared memo.

        Each term gets the full fuel budget, but ground normal forms
        memoised while normalising earlier terms answer probes for the
        later ones — on workloads with shared substructure (the oracle
        checking many instances of the same axioms, the benchmarks
        draining a family of queues) most of the batch is cache hits.

        Always in-process.  To shard a batch across worker processes,
        hold a :class:`repro.parallel.ShardPool` and call its
        ``normalize_many``, which keeps this contract.

        The first limit aborts the whole batch; use
        :meth:`normalize_many_outcomes` for fault isolation.
        """
        return [self.normalize(term, budget) for term in terms]

    def _evaluate(
        self, term: Term, budget: Optional[EvaluationBudget], codegen: bool
    ) -> Term:
        """One evaluation, through the compiled rules or the interpreted
        root step alone, inside an ``engine.normalize`` span when
        tracing.  Generating the module is not part of the evaluation."""
        compiled = self.compiled_rules() if codegen else None
        tracer = _trace.ACTIVE
        if tracer is None or tracer.never:
            # ``never`` guards the eager summarize_term below: a muted
            # tracer must not pay for span attributes it will drop.
            return self._metered(term, budget, compiled)
        with tracer.span(
            "engine.normalize",
            backend="codegen" if codegen else "interpreted",
            subject=summarize_term(term),
        ):
            return self._metered(term, budget, compiled)

    def _metered(
        self,
        term: Term,
        budget: Optional[EvaluationBudget],
        compiled: Optional[CodegenRules],
    ) -> Term:
        """``_eval`` under a fresh meter, recording its latency and
        fuel and draining the compiled rules' counters, however the
        evaluation ends."""
        meter = self._meter(budget)
        fuel = meter.budget.fuel
        stats = self.stats
        fns = None if compiled is None else compiled.fns
        started = perf_counter()
        try:
            return self._limited(term, meter, self._eval, fns)
        finally:
            if compiled is not None:
                compiled._sync()
            stats.latency.observe(perf_counter() - started)
            spent = fuel - meter[0]
            if spent > 0:
                stats.s_fuel[0] += spent
            stats.fuel_hist.observe(spent if spent > 0 else 0)

    def _limited(self, term: Term, meter: BudgetMeter, run, *args) -> Term:
        """``run(term, meter, *args)``, with every way a budget gives
        out surfacing as :class:`RewriteLimitError`."""
        try:
            return run(term, meter, *args)
        except _LimitHit:
            # Generated functions spend fuel without the meter seeing
            # subjects, so the diagnosis draws on whatever the interpreted
            # root steps recorded (a cycle blows the depth limit long
            # before the fuel runs out, so the cycling tail is there).
            limit = meter.exhausted()
        except (BudgetExceeded, RewriteLimitError) as exc:
            # A fresh copy: keeping the raised exception would tie its
            # traceback, and with it this frame and engine, into a
            # reference cycle.
            limit = BudgetExceeded(exc.reason, exc.trace, exc.detail)
        except RecursionError:
            # The value-mode machine is iterative, but simplification
            # and subclass hooks (the prover's guarded unfolding) recurse.
            limit = BudgetExceeded(REASON_DEPTH)
        raise RewriteLimitError(
            term,
            meter.budget.fuel,
            reason=limit.reason,
            trace=limit.trace,
            detail=limit.detail,
        ) from None

    # ------------------------------------------------------------------
    # Resilient evaluation: outcomes and the degradation ladder
    # ------------------------------------------------------------------
    def normalize_outcome(
        self, term: Term, budget: Optional[EvaluationBudget] = None
    ) -> Outcome:
        """Resilient normalisation: an :class:`~repro.runtime.Outcome`
        instead of an exception.

        Degradation ladder: the codegen backend is tried first (when
        selected); an unexpected runtime failure there — a fault
        injection, a recursion blow-up in generated code — degrades to
        the interpreted machine; a failure *there* yields a partial
        ``truncated`` outcome with the fault as the detail.  Budget
        exhaustion maps to ``truncated`` (or ``diverged`` for a
        diagnosed cycle); reaching the algebra's ``error`` value is the
        *defined* result ``error_value``, not a failure.  Each rung is
        one evaluation, metered and accounted like :meth:`normalize`.
        """
        outcome = self._outcome(term, budget, self.backend == "codegen")
        self.stats.record_outcome(outcome.status)
        return outcome

    def _outcome(
        self, term: Term, budget: Optional[EvaluationBudget], codegen: bool
    ) -> Outcome:
        """One rung of the ladder.  The memos only ever store *completed*
        normal forms, so a failure part-way leaves the caches consistent
        — the chaos suite holds it to that."""
        try:
            return Outcome.of_normal_form(
                self._evaluate(term, budget, codegen)
            )
        except RewriteLimitError as exc:
            if not codegen or exc.reason != REASON_DEPTH:
                return Outcome.from_limit(exc)
        except Exception as exc:  # fault-boundary: degrade, else partial result
            if not codegen:
                return Outcome.of_fault(term, exc)
        self.stats.record_fallback("codegen_to_interpreted")
        return self._outcome(term, budget, False)

    def normalize_many_outcomes(
        self,
        terms: Iterable[Term],
        budget: Optional[EvaluationBudget] = None,
    ) -> list[Outcome]:
        """Fault-isolating batch evaluation: one outcome per term, the
        shared memo still warming across items, and no term — however
        pathological — able to abort its neighbours.  Budgets apply per
        item (each term gets the full budget, deadline included).

        Always in-process; a :class:`repro.parallel.ShardPool` shards
        the same contract across worker processes (each worker runs
        this method on its share)."""
        return [self.normalize_outcome(term, budget) for term in terms]

    def compiled_rules(self) -> CodegenRules:
        """The codegen backend's instantiated rule module, built on
        first use and rebuilt when rules were added since (the prover
        grows rule sets in place).  Its functions are root steps of
        this engine's machine and count into this engine's stats."""
        compiled = self._compiled
        if compiled is None or len(compiled.module.rules) != len(self.rules):
            module = codegen_module(self.rules, cache_on=self.cache_size > 0)
            compiled = self._compiled = module.instantiate(
                self.cache_size, self.stats, self._eval, self._cache
            )
        return compiled

    def clear_cache(self) -> None:
        """Drop memoised normal forms (the compiled rules' too) and
        memoised simplifications."""
        self._cache.clear()
        self._simplified.clear()
        if self._compiled is not None:
            self._compiled.clear()

    def _spend(self, budget: BudgetMeter, term: Term) -> None:
        self.stats.s_steps[0] += 1
        budget.spend(term)

    def _eval(
        self, term: Term, budget: BudgetMeter, fns: Optional[dict] = None
    ) -> Term:
        """Value-mode evaluation on an explicit work stack.

        The machine is the defunctionalised form of the obvious
        recursion: a stack of tagged tuple frames plus a ``result``
        register.  ``_F_EVAL`` dispatches on a term; ``_F_APP_ARG`` /
        ``_F_ITE_COND`` collect evaluated children; ``_F_ROOT`` rewrites
        at the root of an argument-normal application, taking the first
        indexed rule that matches (:meth:`_match_root`; value mode has no
        subclass hooks, so a prover engine normalises exactly as the base
        engine does); the ``_F_INST*`` frames fuse rule
        right-hand-side instantiation with normalisation, and
        ``_F_MEMO`` stores ground normal forms once their root pass
        finishes.  Term depth therefore costs heap, not Python stack —
        no recursion-limit fiddling, ever.

        ``fns`` (the codegen backend's :attr:`CodegenRules.fns`) makes
        an operation's generated function its root step: its result is
        the node's normal form.  When a function nests past its depth
        limit, the node's whole subtree finishes on the interpreted
        root step, and an ``_F_COMPILED`` frame restores ``fns`` once it
        is done.  A completed evaluation remembers a ground result as
        its own normal form, so feeding it back in (a drain) is one
        memo probe.
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
                fn = None if fns is None else fns.get(node.op.name)
                if fn is not None:
                    if _faults.ACTIVE is not None:
                        _faults.ACTIVE.visit("compiled.root", node.op)
                    budget.tick()
                    try:
                        result = fn(*node.args, budget, 0)
                        continue
                    except _DeepRecursion:
                        # The abandoned attempt's fuel stays spent: the
                        # budget over-counts such steps, never under.
                        stats.record_fallback("codegen_depth")
                        if _faults.ACTIVE is not None:
                            _faults.ACTIVE.visit("compiled.fallback", node.op)
                        stack.append((_F_COMPILED, fns))
                        fns = None
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
                    rule, bindings = self._match_root(node)
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
            elif tag == _F_COMPILED:
                fns = frame[1]
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
        if (
            cache_on
            and result is not term
            and type(result) is App
            and result._ground
        ):
            self._remember(result, result)
        return result

    def _remember(self, key: Term, value: Term) -> None:
        """Insert into the normal-form memo, evicting the least recently
        used entries once the cache is full (never the whole memo).

        Only *completed* normal forms reach this method, and each insert
        is all-or-nothing, so a fault raised here (the ``engine.remember``
        chaos site) can lose an entry but never poison one.
        """
        cache = self._cache
        if _faults.ACTIVE is not None:
            _faults.ACTIVE.visit("engine.remember", cache)
        if len(cache) >= self.cache_size and key not in cache:
            cache.popitem(last=False)
        cache[key] = value

    def _match_root(self, term: App):
        """The first rule from the discrimination-tree index (head
        symbol, then argument shapes) matching at the root, with its raw
        bindings; ``(None, None)`` when none match."""
        if _faults.ACTIVE is not None:
            _faults.ACTIVE.visit("engine.match_root", term)
        for rule in self.rules.candidates(term):
            bindings = match_bindings(rule.lhs, term)
            if bindings is not None:
                self.stats.record_firing(rule, term)
                return rule, bindings
        return None, None

    def _fires_undecided(self, rule: "RewriteRule") -> bool:
        """Hook: may ``rule`` fire when the leading condition of its
        conditional right-hand side does not decide?  Always here; the
        prover refuses for recursive definitions (guarded unfolding)."""
        return True

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
        either branch yields ``x``.  A spent budget raises
        :class:`RewriteLimitError` as :meth:`normalize` does, but a
        simplification is not an evaluation: ``engine.eval_seconds`` and
        ``engine.fuel_per_eval`` do not count it.
        """
        return self._limited(term, self._meter(budget), self._simplify)

    def _simplify(self, term: Term, budget: BudgetMeter) -> Term:
        """Simplify ``term``, memoised in a bounded LRU keyed on the
        (interned) term.  The rule set is fixed for the engine's
        lifetime, so a term's simplified form never changes; a hit costs
        no fuel.  Only completed results are stored, so a budget blow-up
        part-way leaves the memo consistent.

        A rule's conditional right-hand side is instantiated one
        condition at a time: only the branch the condition selects is
        ever built, as in value mode's ``_F_INST_ITE``.

        Subclasses extend it through two hooks: :meth:`_lift` may
        rewrite an application whose arguments are simplified, and
        :meth:`_fires_undecided` may refuse a rule whose leading
        condition does not decide.  The memo lives here, not in a
        wrapper, to keep one Python frame per term level: a wrapper
        would halve the depth that fits under the interpreter's
        recursion limit."""
        if isinstance(term, (Var, Lit, Err)):
            return term
        memo = self._simplified if self.cache_size > 0 else None
        if memo is not None:
            self.stats.s_simp_probes[0] += 1
            hit = memo.get(term)
            if hit is not None:
                self.stats.s_simp_hits[0] += 1
                memo.move_to_end(term)
                return hit
        if isinstance(term, Ite):
            result: Term = self._instantiate(term, {}, None, budget)
        else:
            assert isinstance(term, App)
            args = []
            changed = False
            for arg in term.args:
                value = self._simplify(arg, budget)
                if isinstance(value, Err):
                    self.stats.s_errprop[0] += 1
                    result = Err(term.sort)
                    break
                if value is not arg:
                    changed = True
                args.append(value)
            else:
                node = App(term.op, args) if changed else term
                lifted = self._lift(node, budget)
                if lifted is not None:
                    result = self._simplify(lifted, budget)
                elif node.op.builtin is not None and all(
                    isinstance(a, Lit) for a in node.args
                ):
                    self.stats.s_builtin[0] += 1
                    step = self._run_builtin(node)
                    self._spend(budget, node)
                    result = self._simplify(step, budget)
                else:
                    result = node
                    for rule in self.rules.candidates(node):
                        bindings = match_bindings(rule.lhs, node)
                        if bindings is None:
                            continue
                        rhs = rule.rhs
                        cond = None
                        if isinstance(rhs, Ite) and not self._fires_undecided(rule):
                            cond = self._simplify(
                                apply_bindings(rhs.cond, bindings), budget
                            )
                            if not _decided(cond):
                                continue
                        self.stats.record_firing(rule, node)
                        self._spend(budget, node)
                        result = self._instantiate(rhs, bindings, cond, budget)
                        break
        if memo is not None:
            memo[term] = result
            if len(memo) > self.cache_size:
                memo.popitem(last=False)
        return result

    def _instantiate(
        self,
        template: Term,
        bindings: dict,
        cond: Optional[Term],
        budget: BudgetMeter,
    ) -> Term:
        """Simplify ``template`` instantiated under ``bindings``, building
        only the branch each decided condition selects.  ``cond``, when
        given, is the simplified condition of ``template``.  An undecided
        condition yields the conditional with both branches simplified,
        and ``if c then x else x`` collapses to ``x``."""
        while isinstance(template, Ite):
            if cond is None:
                cond = self._simplify(
                    apply_bindings(template.cond, bindings), budget
                )
            if is_true(cond):
                template = template.then_branch
            elif is_false(cond):
                template = template.else_branch
            elif isinstance(cond, Err):
                self.stats.s_errprop[0] += 1
                return Err(template.sort)
            else:
                then_branch = self._simplify(
                    apply_bindings(template.then_branch, bindings), budget
                )
                else_branch = self._simplify(
                    apply_bindings(template.else_branch, bindings), budget
                )
                if then_branch == else_branch:
                    return then_branch
                return Ite(cond, then_branch, else_branch)
            cond = None
        return self._simplify(apply_bindings(template, bindings), budget)

    def _lift(self, node: App, budget: BudgetMeter) -> Optional[Term]:
        """Hook: a term to simplify in place of ``node``, whose
        arguments are simplified; ``None`` (here) keeps ``node``."""
        return None


def _decided(cond: Term) -> bool:
    """Does a simplified condition select a branch (or fail)?"""
    return is_true(cond) or is_false(cond) or isinstance(cond, Err)


def _args_normal(term: Term) -> bool:
    """Cheap test used to avoid re-walking already-normal arguments.
    (``all`` over an empty argument tuple is already True, so nullary
    applications need no special case.)"""
    if not isinstance(term, App):
        return True
    return all(isinstance(arg, (Var, Lit, Err)) for arg in term.args)
