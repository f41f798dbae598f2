"""Top-level drivers for representation verification.

Three readings of "the implementation is correct", in increasing
strength, all from section 4 of the paper:

* ``UNCONDITIONAL`` — every obligation proved with representation
  variables ranging over *all* values of the representation sort.
  (For the symbol table this fails: unreachable states break Axioms 6
  and 9, exactly the paper's observation.)
* ``CONDITIONAL`` — proved under environment assumptions (Assumption 1).
  "The representation of the abstract type is correct if the enclosing
  program obeys certain constraints."
* ``REACHABLE`` — proved by generator induction over reachable values,
  using reachability lemmas.  Self-contained: no constraints on the
  enclosing program beyond using only the type's own operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Sequence

from repro.algebra.sorts import Sort
from repro.testing.termgen import constructor_table
from repro.verify.induction import GeneratorInduction, Lemma
from repro.verify.obligations import ProofObligation, obligations_for
from repro.verify.prover import EquationalProver, Fact, ProofResult
from repro.verify.representation import Representation


class Mode(Enum):
    UNCONDITIONAL = auto()
    CONDITIONAL = auto()
    REACHABLE = auto()


@dataclass
class ObligationOutcome:
    obligation: ProofObligation
    proved: bool
    detail: object  # ProofResult or InductionResult

    def __str__(self) -> str:
        verdict = "proved" if self.proved else "NOT PROVED"
        return f"({self.obligation.label}) {verdict}"


@dataclass
class VerificationReport:
    representation_name: str
    mode: Mode
    outcomes: list[ObligationOutcome] = field(default_factory=list)
    lemma_outcomes: list[tuple[str, bool]] = field(default_factory=list)

    @property
    def all_proved(self) -> bool:
        return all(outcome.proved for outcome in self.outcomes)

    @property
    def failed_labels(self) -> tuple[str, ...]:
        return tuple(
            outcome.obligation.label
            for outcome in self.outcomes
            if not outcome.proved
        )

    def __str__(self) -> str:
        lines = [
            f"verification of {self.representation_name} "
            f"[{self.mode.name.lower()} mode]"
        ]
        for name, proved in self.lemma_outcomes:
            lines.append(f"lemma {name}: {'proved' if proved else 'NOT PROVED'}")
        lines.extend(f"  {outcome}" for outcome in self.outcomes)
        verdict = "all proved" if self.all_proved else (
            f"failed: {', '.join(self.failed_labels)}"
        )
        lines.append(verdict)
        return "\n".join(lines)


def _constructor_table(
    representation: Representation,
) -> dict[Sort, tuple]:
    """Free constructors of the representation sort, for constructor
    splits: splitting e.g. Boolean constants is never useful and
    splitting Arrays explodes."""
    rep = representation.rep_sort
    table = constructor_table(representation.concrete)
    return {rep: tuple(table.get(rep, ()))}


def make_prover(
    representation: Representation,
    fuel: int = 100_000,
    max_fact_splits: int = 16,
    max_constructor_splits: int = 4,
) -> EquationalProver:
    return EquationalProver(
        representation.rules(),
        constructors=_constructor_table(representation),
        max_fact_splits=max_fact_splits,
        max_constructor_splits=max_constructor_splits,
        fuel=fuel,
    )


def _prove_closed(
    prover: EquationalProver, obligation: ProofObligation
) -> ProofResult:
    """Free/conditional-mode proof: skolemise everything, attach the
    obligation's assumption facts, and prove."""
    from repro.algebra.terms import App

    lhs, rhs, mapping = prover.skolemize(obligation.lhs, obligation.rhs)
    facts = []
    for assumption in obligation.assumptions:
        predicate_op = _find_operation(prover, assumption.predicate_name)
        constant = mapping[assumption.variable]
        facts.append(Fact(App(predicate_op, (constant,)), assumption.value))
    return prover.prove(lhs, rhs, facts=facts)


def _find_operation(prover: EquationalProver, name: str):
    from repro.algebra.terms import App

    for rule in prover.rules:
        for side in (rule.lhs, rule.rhs):
            for _, node in side.subterms():
                if isinstance(node, App) and node.op.name == name:
                    return node.op
    raise ValueError(f"assumption predicate {name!r} not found in rules")


def verify_representation(
    representation: Representation,
    mode: Mode = Mode.REACHABLE,
    lemmas: Sequence[Lemma] = (),
    fuel: int = 100_000,
) -> VerificationReport:
    """Discharge every inherent-invariant obligation of
    ``representation`` in the requested ``mode``, in process, through
    one prover (so its skolem constants, engines and memos serve every
    obligation).
    """
    report = VerificationReport(representation.abstract.name, mode)
    prover = make_prover(representation, fuel=fuel)

    if mode is Mode.REACHABLE:
        induction = GeneratorInduction(representation, prover)
        for lemma in lemmas:
            outcome = induction.establish_lemma(lemma)
            report.lemma_outcomes.append((lemma.name, outcome.proved))
        obligations = obligations_for(representation, with_assumption_1=False)
        for obligation in obligations:
            if obligation.rep_variables:
                variable = obligation.rep_variables[0]
                detail = induction.prove(
                    obligation.lhs, obligation.rhs, variable
                )
                report.outcomes.append(
                    ObligationOutcome(obligation, detail.proved, detail)
                )
            else:
                lhs, rhs, _ = prover.skolemize(obligation.lhs, obligation.rhs)
                proof = prover.prove(lhs, rhs)
                report.outcomes.append(
                    ObligationOutcome(obligation, proof.proved, proof)
                )
        return report

    with_assumption = mode is Mode.CONDITIONAL
    obligations = obligations_for(
        representation, with_assumption_1=with_assumption
    )
    for obligation in obligations:
        proof = _prove_closed(prover, obligation)
        report.outcomes.append(
            ObligationOutcome(obligation, proof.proved, proof)
        )
    return report
