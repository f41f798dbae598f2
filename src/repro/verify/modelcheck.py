"""Ground model checking of representation obligations.

A complement to the symbolic prover: obligations are evaluated on
concrete representation values and the two sides compared.  Cheap,
complete in spirit (up to the enumeration bound), and the tool that
exhibits *counterexamples* — e.g. instantiating the rep variable of
Axiom 9's obligation with the **unreachable** empty stack shows exactly
why the paper needs Assumption 1.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.algebra.substitution import Substitution
from repro.algebra.terms import App, Term
from repro.obs.trace import maybe_span
from repro.rewriting.engine import RewriteEngine
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
    #: divergence, contained faults) — skipped, not counterexamples.
    undecided: int = 0

    @property
    def holds(self) -> bool:
        return not self.counterexamples

    def __str__(self) -> str:
        verdict = "holds" if self.holds else "FAILS"
        suffix = f", {self.undecided} undecided" if self.undecided else ""
        lines = [
            f"obligation ({self.obligation_label}) {verdict} on "
            f"{self.instances_checked} ground instance(s){suffix}"
        ]
        lines.extend(f"  {ce}" for ce in self.counterexamples[:5])
        return "\n".join(lines)


def reachable_states(
    representation: Representation,
    depth: int,
    identifiers: Sequence[str] = ("x", "y", "z"),
    attribute_values: Sequence[object] = ("int", "real"),
    limit: int = 200,
    seed: int = 7,
) -> list[Term]:
    """Ground representation values built from the generators.

    Breadth-first composition of the generator operations up to
    ``depth`` applications, with literal pools for the non-representation
    arguments.  Results are *normalised* concrete terms (stacks of
    arrays), deduplicated.  ``limit`` caps the frontier per level (a
    random sample keeps variety when the space explodes).
    """
    from repro.spec.prelude import attributes, identifier

    engine = RewriteEngine(representation.rules())
    rng = random.Random(seed)
    rep_sort = representation.rep_sort
    id_terms = [identifier(name) for name in identifiers]
    attr_terms = [attributes(value) for value in attribute_values]

    states: list[Term] = []
    seen: set[Term] = set()
    frontier: list[Term] = []
    with maybe_span("modelcheck.reachable_states", depth=depth):
        for definition in representation.generator_definitions():
            if rep_sort not in definition.operation.domain:
                base = engine.normalize(App(definition.operation, ()))
                if base not in seen:
                    seen.add(base)
                    states.append(base)
                    frontier.append(base)

        for _ in range(depth):
            next_frontier: list[Term] = []
            for state in frontier:
                for definition in representation.generator_definitions():
                    operation = definition.operation
                    if rep_sort not in operation.domain:
                        continue
                    arg_choices: list[list[Term]] = []
                    for sort in operation.domain:
                        if sort == rep_sort:
                            arg_choices.append([state])
                        elif str(sort) == "Identifier":
                            arg_choices.append(list(id_terms))
                        elif str(sort) == "Attributelist":
                            arg_choices.append(list(attr_terms))
                        else:
                            arg_choices.append([])
                    if any(not choices for choices in arg_choices):
                        continue
                    for combo in itertools.product(*arg_choices):
                        outcome = engine.normalize_outcome(
                            App(operation, combo)
                        )
                        if not outcome.ok:
                            continue
                        value = outcome.term
                        if value not in seen:
                            seen.add(value)
                            states.append(value)
                            next_frontier.append(value)
            if len(next_frontier) > limit:
                next_frontier = rng.sample(next_frontier, limit)
            frontier = next_frontier
            if not frontier:
                break
    return states


def model_check(
    obligation: ProofObligation,
    representation: Representation,
    rep_values: Iterable[Term],
    identifiers: Sequence[str] = ("x", "y", "z"),
    attribute_values: Sequence[object] = ("int", "real"),
    max_instances: int = 400,
    fuel: int = 100_000,
    extra_pools: Optional[dict[str, Sequence[Term]]] = None,
) -> ModelCheckReport:
    """Evaluate ``obligation`` on ground instantiations.

    Representation variables range over ``rep_values`` (pass reachable
    states for the conditional-correctness reading, or include raw
    unreachable terms such as ``NEWSTACK`` to hunt for the paper's
    Assumption 1 counterexample); other variables range over the literal
    pools.  ``extra_pools`` maps sort names to term pools for sorts
    beyond the built-in Identifier/Attributelist/Item trio.

    Both sides of every instance go through one fault-isolating
    :meth:`~repro.rewriting.engine.RewriteEngine.normalize_many_outcomes`
    batch, so one pathological instance is tallied as undecided
    instead of aborting the rest.
    """
    from repro.spec.prelude import attributes, identifier, item

    engine = RewriteEngine(representation.rules(), fuel=fuel)
    report = ModelCheckReport(obligation.label)
    variables = sorted(
        obligation.lhs.variables() | obligation.rhs.variables(),
        key=lambda v: v.name,
    )
    custom = {name: list(terms) for name, terms in (extra_pools or {}).items()}
    pools: list[list[Term]] = []
    for variable in variables:
        sort_name = str(variable.sort)
        if variable.sort == representation.rep_sort:
            pools.append(list(rep_values))
        elif sort_name in custom:
            pools.append(custom[sort_name])
        elif sort_name == "Identifier":
            pools.append([identifier(name) for name in identifiers])
        elif sort_name == "Attributelist":
            pools.append([attributes(value) for value in attribute_values])
        elif sort_name == "Item":
            pools.append([item(value) for value in ("a", "b", 1)])
        else:
            raise ValueError(
                f"no ground pool for variable {variable} of sort "
                f"{variable.sort}"
            )

    with maybe_span("modelcheck.obligation", label=obligation.label):
        substitutions = [
            Substitution(dict(zip(variables, combo)))
            for combo in itertools.islice(
                itertools.product(*pools), max_instances
            )
        ]
        outcomes = engine.normalize_many_outcomes(
            [
                side
                for sigma in substitutions
                for side in (
                    sigma.apply(obligation.lhs),
                    sigma.apply(obligation.rhs),
                )
            ]
        )
        for i, sigma in enumerate(substitutions):
            left, right = outcomes[2 * i], outcomes[2 * i + 1]
            report.instances_checked += 1
            if not (left.ok and right.ok):
                report.undecided += 1
                continue
            if left.term != right.term:
                report.counterexamples.append(
                    Counterexample(
                        obligation.label, sigma, left.term, right.term
                    )
                )
    return report
