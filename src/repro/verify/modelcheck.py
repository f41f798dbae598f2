"""Ground model checking of representation obligations.

A complement to the symbolic prover: obligations are evaluated on
concrete representation values and the two sides compared.  Cheap,
complete in spirit (up to the enumeration bound), and the tool that
exhibits *counterexamples* — e.g. instantiating the rep variable of
Axiom 9's obligation with the **unreachable** empty stack shows exactly
why the paper needs Assumption 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.algebra.substitution import Substitution
from repro.algebra.terms import App, Term
from repro.obs.trace import maybe_span
from repro.rewriting.engine import RewriteEngine
from repro.runtime.budget import EvaluationBudget
from repro.testing.oracle import compare_by_rewriting
from repro.testing.termgen import (
    GroundTermEnumerator,
    hypothesis,
    prefix,
    variables_in_order,
)
from repro.verify.obligations import ProofObligation
from repro.verify.representation import Representation


@dataclass(frozen=True)
class Counterexample:
    """A ground instantiation on which an obligation's sides differ."""

    obligation_label: str
    substitution: Substitution
    lhs_value: Term
    rhs_value: Term

    def __str__(self) -> str:
        return (
            f"obligation ({self.obligation_label}) fails at "
            f"{self.substitution}: {self.lhs_value} != {self.rhs_value}"
        )


@dataclass
class ModelCheckReport:
    obligation_label: str
    instances_checked: int = 0
    counterexamples: list[Counterexample] = field(default_factory=list)
    #: Instances that stopped short of normal forms (budget exhaustion,
    #: divergence, contained faults) — skipped, not counterexamples, and
    #: not among ``instances_checked``.
    undecided: int = 0
    #: Every instance up to this total size was checked (None: all were).
    complete_to: Optional[int] = None

    @property
    def holds(self) -> bool:
        return not self.counterexamples

    def __str__(self) -> str:
        verdict = "holds for all" if self.holds else "FAILS, checked"
        checked = hypothesis(self.instances_checked, self.complete_to, self.undecided)
        lines = [f"obligation ({self.obligation_label}) {verdict} {checked}"]
        lines.extend(f"  {ce}" for ce in self.counterexamples[:5])
        return "\n".join(lines)


def reachable_states(
    representation: Representation, depth: int, limit: int = 200
) -> list[Term]:
    """Ground representation values built from the generators.

    Breadth-first composition of the generator operations up to
    ``depth`` applications.  Literal arguments come from the one literal
    table (:data:`~repro.testing.termgen.DEFAULT_POOLS`), taken up to
    renaming where the rules allow: an argument is a literal the state
    already holds, or the first one it does not.  Results are
    *normalised* concrete terms (stacks of arrays), deduplicated, in
    generation order; ``limit`` caps the frontier per level, keeping the
    first states generated.
    """
    rules = representation.rules()
    engine = RewriteEngine(rules)
    enumerator = GroundTermEnumerator(representation.concrete, rules)
    rep_sort = representation.rep_sort
    generators = [d.operation for d in representation.generator_definitions()]
    seen: dict[Term, None] = {}

    def successors(state: Optional[Term]) -> list[Term]:
        """New states from a generator on ``state`` (or on no state)."""
        found = []
        for operation in generators:
            if (rep_sort in operation.domain) != (state is not None):
                continue
            columns = [
                [state] if sort == rep_sort else enumerator.leaves(sort)
                for sort in operation.domain
            ]
            for _, args in enumerator.product(columns):
                outcome = engine.normalize_outcome(App(operation, args))
                if outcome.ok and outcome.term not in seen:
                    seen[outcome.term] = None
                    found.append(outcome.term)
        return found

    with maybe_span("modelcheck.reachable_states", depth=depth):
        frontier = successors(None)
        for _ in range(depth):
            frontier = [new for state in frontier for new in successors(state)]
            frontier = frontier[:limit]
    return list(seen)


def model_check(
    obligation: ProofObligation,
    representation: Representation,
    rep_values: Iterable[Term],
    max_instances: int = 400,
    fuel: int = 100_000,
) -> ModelCheckReport:
    """Evaluate ``obligation`` on its smallest ground instantiations.

    Representation variables range over ``rep_values`` (pass reachable
    states for the conditional-correctness reading, or include raw
    unreachable terms such as ``NEWSTACK`` to hunt for the paper's
    Assumption 1 counterexample); other variables range over the ground
    terms of their sort, literals up to renaming where the rules allow
    (:class:`~repro.testing.termgen.GroundTermEnumerator`).  Instances come
    in increasing total size, ``max_instances`` bounds them, and they
    are compared by :func:`~repro.testing.oracle.compare_by_rewriting`.
    """
    rules = representation.rules()
    engine = RewriteEngine(rules, budget=EvaluationBudget(fuel=fuel))
    enumerator = GroundTermEnumerator(representation.concrete, rules)
    report = ModelCheckReport(obligation.label)
    variables = variables_in_order(obligation.lhs, obligation.rhs)
    rep_values = list(rep_values)
    columns = [
        rep_values if v.sort == representation.rep_sort else enumerator.column(v.sort)
        for v in variables
    ]

    with maybe_span("modelcheck.obligation", label=obligation.label):
        taken, complete_to = prefix(enumerator.product(columns), max_instances)
        substitutions = [
            (size, Substitution(dict(zip(variables, values))))
            for size, values in taken
        ]
        unequal = compare_by_rewriting(
            engine, obligation.lhs, obligation.rhs, substitutions, complete_to, report
        )
    report.counterexamples = [Counterexample(obligation.label, *u) for u in unequal]
    return report
