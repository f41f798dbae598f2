"""Generator induction (Wegbreit's term, adopted by the paper).

"All that need be shown is that INIT' establishes the invariants and
that if on entry to an operation all invariants hold ... then all
invariants hold upon completion."  Formally: the reachable values of the
representation are those built by the *generators* — the primed forms of
the abstract constructors (``INIT'``, ``ENTERBLOCK'``, ``ADD'``) — and a
property of all reachable values is proved by structural induction over
generator terms:

* one **base case** per generator with no representation-sorted
  argument;
* one **step case** per recursive generator, in which the property may
  be assumed (the induction hypothesis) for the generator's
  representation-sorted arguments, along with any previously proved
  reachability *lemmas* (e.g. ``IS_NEWSTACK?(x) = false`` for all
  reachable ``x`` — the theorem that discharges the paper's
  Assumption 1 for reachable states).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.algebra.substitution import Substitution
from repro.algebra.terms import App, Term, Var
from repro.rewriting.rules import RewriteRule
from repro.verify.prover import EquationalProver, ProofResult
from repro.verify.representation import Representation
from repro.verify.skolem import fresh_constant


@dataclass(frozen=True)
class Lemma:
    """A proved (or to-be-proved) fact about all reachable values.

    ``variable`` is the universally quantified reachable value; ``lhs``
    and ``rhs`` are templates over it (other variables in the templates
    stay universally quantified and become pattern variables of the
    instantiated rule).
    """

    name: str
    variable: Var
    lhs: Term
    rhs: Term

    def instantiate(self, value: Term) -> RewriteRule:
        sigma = Substitution({self.variable: value})
        return RewriteRule(sigma.apply(self.lhs), sigma.apply(self.rhs), self.name)

    def __str__(self) -> str:
        return f"lemma {self.name}: {self.lhs} = {self.rhs} for reachable {self.variable}"


@dataclass
class InductionResult:
    proved: bool
    cases: list[tuple[str, ProofResult]] = field(default_factory=list)

    def __str__(self) -> str:
        verdict = "PROVED" if self.proved else "FAILED"
        lines = [f"induction {verdict}"]
        for name, result in self.cases:
            lines.append(f"-- case {name}:")
            lines.append(str(result))
        return "\n".join(lines)


class GeneratorInduction:
    """Proves ``∀ reachable x. lhs(x) = rhs(x)`` by generator induction."""

    def __init__(
        self,
        representation: Representation,
        prover: EquationalProver,
        lemmas: Sequence[Lemma] = (),
    ) -> None:
        if not representation.generators:
            raise ValueError(
                "generator induction needs the representation to declare "
                "its generators"
            )
        self.representation = representation
        self.prover = prover
        self.lemmas = list(lemmas)

    # ------------------------------------------------------------------
    def prove(
        self,
        lhs: Term,
        rhs: Term,
        variable: Var,
        use_hypothesis: bool = True,
    ) -> InductionResult:
        """Prove ``lhs = rhs`` for all reachable values of ``variable``.

        Other free variables of the equation are universally quantified:
        they become the prover's skolem constants (and stay general in
        the induction hypothesis, which is sound — the hypothesis holds
        for *all* values of its non-induction variables).  The
        generator's arguments are fresh constants per case.
        """
        result = InductionResult(True)
        rep_sort = self.representation.rep_sort
        if variable.sort != rep_sort:
            raise ValueError(
                f"induction variable {variable} is not of the "
                f"representation sort {rep_sort}"
            )
        for definition in self.representation.generator_definitions():
            generator = definition.operation
            sub_constants: list[Term] = []
            args: list[Term] = []
            for sort in generator.domain:
                constant = fresh_constant(sort.name.lower(), sort)
                args.append(constant)
                if sort == rep_sort:
                    sub_constants.append(constant)
            case_term: Term = App(generator, args)
            case_name = str(case_term)

            goal_lhs, goal_rhs, _ = self.prover.skolemize(
                Substitution({variable: case_term}).apply(lhs),
                Substitution({variable: case_term}).apply(rhs),
            )

            extra_rules: list[RewriteRule] = []
            for constant in sub_constants:
                for lemma in self.lemmas:
                    extra_rules.append(lemma.instantiate(constant))
                if use_hypothesis:
                    hypothesis = self._hypothesis(lhs, rhs, variable, constant)
                    if hypothesis is not None:
                        extra_rules.append(hypothesis)

            proof = self.prover.prove(goal_lhs, goal_rhs, extra_rules)
            result.cases.append((case_name, proof))
            if not proof.proved:
                result.proved = False
        return result

    def _hypothesis(
        self, lhs: Term, rhs: Term, variable: Var, constant: Term
    ) -> Optional[RewriteRule]:
        sigma = Substitution({variable: constant})
        hyp_lhs = sigma.apply(lhs)
        hyp_rhs = sigma.apply(rhs)
        if not isinstance(hyp_lhs, App):
            return None
        if hyp_rhs.variables() - hyp_lhs.variables():
            return None
        return RewriteRule(hyp_lhs, hyp_rhs, "IH")

    # ------------------------------------------------------------------
    def establish_lemma(self, lemma: Lemma) -> InductionResult:
        """Prove ``lemma`` by generator induction and, on success, make
        it available to subsequent proofs."""
        outcome = self.prove(lemma.lhs, lemma.rhs, lemma.variable)
        if outcome.proved:
            self.lemmas.append(lemma)
        return outcome


def not_newstack_lemma(representation: Representation) -> Lemma:
    """The reachability lemma discharging Assumption 1.

    ``IS_NEWSTACK?(x) = false`` for every reachable ``x``: no reachable
    symbol-table representation is the empty stack, because ``INIT'``
    pushes the first (global) scope.
    """
    predicate = representation.concrete.operation("IS_NEWSTACK?")
    from repro.spec.prelude import false_term

    variable = Var("reachable", representation.rep_sort)
    return Lemma(
        "reachable-not-newstack",
        variable,
        App(predicate, (variable,)),
        false_term(),
    )
