"""A small equational prover for representation proofs.

The proof method is the paper's: "by using the axiomatizations of the
operations used in constructing the representations, it is shown that
the left-hand side of each axiom is equivalent to the right-hand side".
Mechanically, the prover:

1. **simplifies** both sides by rewriting — the concrete axioms, the
   primed definitions and the Φ equations, with strict ``error``
   propagation and *conditional lifting* (``f(if c then a else b)``
   becomes ``if c then f(a) else f(b)``, sound because the condition
   selects which argument ``f`` actually receives);
2. when the sides still differ, **splits on a condition**: an undecided
   ``if`` condition is assumed ``true`` in one branch and ``false`` in
   the other (it is a closed term — all proof variables are skolem
   constants — so the added fact is exact);
3. when no condition helps, **splits a skolem constant by
   constructor**: a stack is ``NEWSTACK`` or ``PUSH(s, a)``; both cases
   are proved.  Cases contradicting an accumulated fact (e.g. Assumption
   1 rules out ``NEWSTACK``) are vacuous and skipped.

Every step is recorded in a transcript, so a failed proof shows the
residual equation and the case path that produced it — which for the
paper's Axiom 9 without Assumption 1 is precisely the unreachable-state
counterexample.

Nothing is rebuilt that the prover already has.  It keeps one
:class:`ProverEngine` per distinct (extra rules, fact set) for its own
lifetime (a bounded LRU), so later goals and other branches that reach
the same facts reuse the engine and its simplify memo.  Goals meet the
same terms because the prover also owns their skolem constants
(:meth:`EquationalProver.skolemize`): a variable becomes one constant for
every goal proved through the prover.  An engine's
rules are an overlay — the extra rules and the facts' ground rules
``c -> true|false`` — read after the shared base index, never a copy of
it, so facts cannot leak into the base.  The simplify memo is bounded
by the engine's ``cache_size``; a hit costs no fuel, so ``fuel`` bounds
the rewriting work actually done.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.algebra.signature import Operation
from repro.algebra.sorts import Sort
from repro.algebra.terms import App, Ite, Term, Var, map_terms
from repro.spec.prelude import boolean_term, is_false, is_true
from repro.obs.trace import maybe_span
from repro.rewriting.engine import RewriteEngine, RewriteLimitError
from repro.rewriting.rules import RewriteRule, RuleSet
from repro.runtime.budget import BudgetMeter, EvaluationBudget
from repro.verify.skolem import fresh_constant, is_skolem, skolemize_pair


class ProverEngine(RewriteEngine):
    """The rewrite engine extended for symbolic proof work.

    Two extensions over the base engine's ``simplify``, both through its
    hooks (:meth:`_lift` and :meth:`_fires_undecided`):

    * **conditional lifting** — ``f(if c then a else b)`` becomes
      ``if c then f(a) else f(b)``;
    * **guarded unfolding of recursive definitions** — a rule whose
      right-hand side mentions its own head symbol (``RETRIEVE'``) is
      only applied when its body's leading ``if`` condition decides
      under the current rules; unguarded unfolding of such definitions
      on open terms never terminates (``RETRIEVE'(POP(s))`` would beget
      ``RETRIEVE'(POP(POP(s)))`` forever).

    Value mode has no hooks: ``normalize`` is the base engine's, and the
    prover never calls it (proof work is ``simplify`` alone).
    """

    def _is_recursive(self, rule: RewriteRule) -> bool:
        """True for rules that can unfold forever on open terms:
        recursive, *and* with nothing but bare variables on the left (so
        each unfold consumes no structure).  Rules that pattern-match a
        constructor (axiom 18's ``IS_UNDEFINED?(ASSIGN(...), idl)``)
        strictly shrink their argument and are safe to unfold freely."""
        cache = getattr(self, "_recursive_cache", None)
        if cache is None:
            cache = {}
            self._recursive_cache = cache
        key = id(rule)
        if key not in cache:
            assert isinstance(rule.lhs, App)
            consumes_structure = any(
                not isinstance(arg, Var) for arg in rule.lhs.args
            )
            cache[key] = (
                rule.head in rule.rhs.operations() and not consumes_structure
            )
        return cache[key]

    def _fires_undecided(self, rule: RewriteRule) -> bool:
        """Guarded unfolding: a recursive definition fires only when its
        leading condition decides under the current rules."""
        return not self._is_recursive(rule)

    def _lift(self, node: App, budget: BudgetMeter) -> Optional[Term]:
        """Conditional lifting: distribute the application over the
        branches of its first conditional argument."""
        for index, arg in enumerate(node.args):
            if isinstance(arg, Ite):
                self._spend(budget, node)
                then_args = list(node.args)
                then_args[index] = arg.then_branch
                else_args = list(node.args)
                else_args[index] = arg.else_branch
                return Ite(
                    arg.cond, App(node.op, then_args), App(node.op, else_args)
                )
        return None


@dataclass(frozen=True)
class Fact:
    """An assumed truth value for a closed Boolean term."""

    condition: Term
    value: bool

    def as_rule(self) -> RewriteRule:
        if not isinstance(self.condition, App):
            raise ValueError(f"cannot assume a non-application: {self.condition}")
        return RewriteRule(
            self.condition, boolean_term(self.value), "assume"
        )

    def __str__(self) -> str:
        return f"{self.condition} = {str(self.value).lower()}"


@dataclass
class ProofStep:
    description: str
    depth: int

    def __str__(self) -> str:
        return "  " * self.depth + self.description


@dataclass
class ProofResult:
    proved: bool
    lhs: Term
    rhs: Term
    transcript: list[ProofStep] = field(default_factory=list)
    residual: Optional[tuple[Term, Term]] = None
    failing_facts: tuple[Fact, ...] = ()

    def __str__(self) -> str:
        verdict = "PROVED" if self.proved else "FAILED"
        lines = [f"{verdict}: {self.lhs} = {self.rhs}"]
        lines.extend(str(step) for step in self.transcript)
        if self.residual is not None:
            lines.append(f"residual: {self.residual[0]} = {self.residual[1]}")
        if self.failing_facts:
            facts = ", ".join(str(f) for f in self.failing_facts)
            lines.append(f"under: {facts}")
        return "\n".join(lines)


@dataclass(frozen=True)
class ConstructorCase:
    """One branch of a constructor split: the constant that was split
    and the case term it became."""

    constant: Term
    case_term: Term


def replace_constant(term: Term, constant: Term, replacement: Term) -> Term:
    """``term`` with every occurrence of the (nullary) ``constant``
    replaced by ``replacement``."""
    return map_terms(
        term, lambda node: replacement if node == constant else None
    )


#: How many engines one prover keeps, one per (extra rules, fact set),
#: the least recently used dropped first.
_ENGINE_CACHE_SIZE = 64


class EquationalProver:
    """Proves closed equations under a rule set.

    The prover keeps one :class:`ProverEngine`, and so one simplify
    memo, per distinct (extra rules, fact set) it meets, for its own
    lifetime (bounded LRU).  Each engine's rules are an overlay of the
    extra rules and the facts' ground rules on the shared base index.
    It also keeps one skolem constant per variable (:meth:`skolemize`),
    so the goals of one client program or one representation run share
    their terms, and with them the memo.

    Parameters
    ----------
    rules:
        Base rewrite rules (concrete axioms, definitions, Φ equations).
        The prover reads them and never adds to them; they must not
        change while it is in use.
    constructors:
        Free constructors per sort, used for constructor splits on
        skolem constants (e.g. ``{Stack: (NEWSTACK, PUSH)}``).
    max_fact_splits / max_constructor_splits:
        Case-analysis budgets.
    fuel:
        Rewrite step budget per simplification: one
        :class:`~repro.runtime.EvaluationBudget` shared by every engine
        the prover builds.
    """

    def __init__(
        self,
        rules: RuleSet,
        constructors: Optional[dict[Sort, Sequence[Operation]]] = None,
        max_fact_splits: int = 16,
        max_constructor_splits: int = 4,
        fuel: int = 100_000,
    ) -> None:
        self.rules = rules
        self._engines: "OrderedDict[tuple, ProverEngine]" = OrderedDict()
        self._skolems: dict[Var, Term] = {}
        self.constructors = {
            sort: tuple(ops) for sort, ops in (constructors or {}).items()
        }
        self.max_fact_splits = max_fact_splits
        self.max_constructor_splits = max_constructor_splits
        self.budget = EvaluationBudget(fuel=fuel)

    # ------------------------------------------------------------------
    def skolemize(
        self, lhs: Term, rhs: Term
    ) -> tuple[Term, Term, dict[Var, Term]]:
        """Close ``lhs = rhs`` with this prover's skolem constants.

        A variable gets one constant for the prover's lifetime, shared
        by every goal skolemised here, instead of a new one per goal.
        Returns both sides and the equation's mapping from variable to
        constant.

        Sharing is sound.  A goal's constant is still fixed but
        arbitrary: no base rule mentions it, so a proof about it holds
        for every value of its sort, whichever goal chose it first.
        What a proof assumes about a constant — case-split facts, lemma
        instances, induction hypotheses — is part of the engine key
        ``(extra, facts)``, so it reaches only the engine built for
        exactly those assumptions, and a memo entry is reused only
        under the rules that produced it.  A later goal over the same
        constants starts from the base engine and learns nothing from
        an earlier goal's splits.
        """
        return skolemize_pair(lhs, rhs, skolems=self._skolems)

    def prove(
        self,
        lhs: Term,
        rhs: Term,
        extra_rules: Iterable[RewriteRule] = (),
        facts: Iterable[Fact] = (),
    ) -> ProofResult:
        """Attempt to prove the closed equation ``lhs = rhs``."""
        result = ProofResult(False, lhs, rhs)
        extra = tuple(extra_rules)
        with maybe_span(
            "prover.prove", lhs=str(lhs)[:80], rhs=str(rhs)[:80]
        ):
            proved = self._prove(
                lhs,
                rhs,
                extra,
                list(facts),
                result,
                depth=0,
                fact_budget=self.max_fact_splits,
                constructor_budget=self.max_constructor_splits,
            )
        result.proved = proved
        return result

    # ------------------------------------------------------------------
    def _engine(
        self, extra: tuple[RewriteRule, ...], facts: Sequence[Fact]
    ) -> ProverEngine:
        """The engine for ``extra`` rules and ``facts``: built on first
        use over an overlay of the base index, then reused."""
        key = (extra, tuple(facts))
        engines = self._engines
        engine = engines.get(key)
        if engine is None:
            rules = self.rules
            if key != ((), ()):
                rules = RuleSet(
                    extra + tuple(fact.as_rule() for fact in facts), base=rules
                )
            engine = ProverEngine(rules, budget=self.budget)
            if len(engines) >= _ENGINE_CACHE_SIZE:
                engines.popitem(last=False)
            engines[key] = engine
        else:
            engines.move_to_end(key)
        return engine

    def _prove(
        self,
        lhs: Term,
        rhs: Term,
        extra: tuple[RewriteRule, ...],
        facts: list[Fact],
        result: ProofResult,
        depth: int,
        fact_budget: int,
        constructor_budget: int,
    ) -> bool:
        engine = self._engine(extra, facts)
        try:
            left = engine.simplify(lhs)
            right = engine.simplify(rhs)
        except RewriteLimitError:
            result.transcript.append(
                ProofStep("simplification ran out of fuel", depth)
            )
            result.residual = (lhs, rhs)
            result.failing_facts = tuple(facts)
            return False
        if left == right:
            result.transcript.append(
                ProofStep(f"both sides simplify to {left}", depth)
            )
            return True

        condition = self._pick_condition(left) or self._pick_condition(right)
        if condition is not None and fact_budget > 0:
            result.transcript.append(
                ProofStep(f"case split on {condition}", depth)
            )
            for value in (True, False):
                result.transcript.append(
                    ProofStep(f"case {condition} = {str(value).lower()}:", depth)
                )
                if not self._prove(
                    left,
                    right,
                    extra,
                    facts + [Fact(condition, value)],
                    result,
                    depth + 1,
                    fact_budget - 1,
                    constructor_budget,
                ):
                    return False
            return True

        constant = self._pick_splittable_constant(left, right, facts)
        if constant is not None and constructor_budget > 0:
            return self._constructor_split(
                constant,
                left,
                right,
                extra,
                facts,
                result,
                depth,
                fact_budget,
                constructor_budget - 1,
            )

        result.transcript.append(
            ProofStep(f"stuck: {left} = {right}", depth)
        )
        result.residual = (left, right)
        result.failing_facts = tuple(facts)
        return False

    # ------------------------------------------------------------------
    def _pick_condition(self, term: Term) -> Optional[Term]:
        """An outermost undecided ``if`` condition, closed and splittable."""
        for _, node in sorted(term.subterms(), key=lambda pair: len(pair[0])):
            if isinstance(node, Ite):
                cond = node.cond
                if (
                    isinstance(cond, App)
                    and not cond.variables()
                    and not is_true(cond)
                    and not is_false(cond)
                ):
                    return cond
        return None

    def _pick_splittable_constant(
        self, left: Term, right: Term, facts: Sequence[Fact]
    ) -> Optional[Term]:
        """A skolem constant of a sort we know the constructors of."""
        for side in (left, right):
            for _, node in side.subterms():
                if is_skolem(node) and node.sort in self.constructors:
                    return node
        return None

    def _constructor_split(
        self,
        constant: Term,
        left: Term,
        right: Term,
        extra: tuple[RewriteRule, ...],
        facts: list[Fact],
        result: ProofResult,
        depth: int,
        fact_budget: int,
        constructor_budget: int,
    ) -> bool:
        result.transcript.append(
            ProofStep(f"constructor split on {constant}", depth)
        )
        for constructor in self.constructors[constant.sort]:
            args = [
                fresh_constant(sort.name.lower(), sort)
                for sort in constructor.domain
            ]
            case_term = App(constructor, args)
            result.transcript.append(
                ProofStep(f"case {constant} = {case_term}:", depth)
            )
            case_left = replace_constant(left, constant, case_term)
            case_right = replace_constant(right, constant, case_term)
            case_facts: list[Fact] = []
            vacuous = False
            for fact in facts:
                cond = replace_constant(fact.condition, constant, case_term)
                simplified = self._engine(extra, case_facts).simplify(cond)
                if is_true(simplified) or is_false(simplified):
                    if is_true(simplified) != fact.value:
                        vacuous = True
                        break
                    continue  # the fact became trivially true; drop it
                case_facts.append(Fact(cond, fact.value))
            if vacuous:
                result.transcript.append(
                    ProofStep("vacuous (contradicts an assumption)", depth + 1)
                )
                continue
            if not self._prove(
                case_left,
                case_right,
                extra,
                case_facts,
                result,
                depth + 1,
                fact_budget,
                constructor_budget,
            ):
                return False
        return True
