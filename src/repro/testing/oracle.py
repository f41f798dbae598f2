"""The axiom oracle: testing implementations against specifications.

Section 5: "a system in which implementations and algebraic
specifications of abstract types are interchangeable ... should prove
valuable as a vehicle for facilitating the testing of software."

An :class:`ImplementationBinding` maps each operation of a specification
to a Python callable; the oracle then evaluates both sides of every
axiom on its smallest ground instances *through the implementation*
and compares results.  The paper's ``error`` corresponds to the callable
raising :class:`~repro.spec.errors.AlgebraError`; two sides are equal
when they produce equal values or both error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from repro.algebra.substitution import Substitution
from repro.algebra.terms import App, Err, Ite, Lit, Term, Var
from repro.obs.trace import maybe_span
from repro.spec.axioms import Axiom
from repro.spec.errors import AlgebraError
from repro.spec.specification import Specification
from repro.testing.termgen import GroundTermEnumerator, hypothesis, prefix, tighter


class _ErrorValue:
    """Sentinel for the algebra's ``error`` in Python evaluation."""

    _instance: Optional["_ErrorValue"] = None

    def __new__(cls) -> "_ErrorValue":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ERROR"


#: The unique error value.
ERROR = _ErrorValue()


class BindingError(Exception):
    """Raised when a term mentions an operation the binding lacks."""


@dataclass
class ImplementationBinding:
    """Python callables implementing a specification's operations.

    ``impls`` maps operation names to callables; operations with a
    ``builtin`` evaluator (``ISSAME?``) and the Boolean prelude
    (``true``/``false``/``not``/``and``/``or``) need no entry.
    """

    spec: Specification
    impls: Mapping[str, Callable[..., object]]

    def evaluate(self, term: Term, env: Mapping[Var, object]) -> object:
        """The Python value of ``term`` under ``env``.

        Strict in ``error`` except through if-then-else branches,
        mirroring the term algebra's semantics.
        """
        if isinstance(term, Var):
            try:
                return env[term]
            except KeyError:
                raise BindingError(f"unbound variable {term}") from None
        if isinstance(term, Lit):
            return term.value
        if isinstance(term, Err):
            return ERROR
        if isinstance(term, Ite):
            condition = self.evaluate(term.cond, env)
            if condition is ERROR:
                return ERROR
            if not isinstance(condition, bool):
                raise BindingError(
                    f"if-condition evaluated to non-boolean {condition!r}"
                )
            branch = term.then_branch if condition else term.else_branch
            return self.evaluate(branch, env)
        assert isinstance(term, App)
        arguments = []
        for argument in term.args:
            value = self.evaluate(argument, env)
            if value is ERROR:
                return ERROR
            arguments.append(value)
        return self._apply(term.op.name, term.op, arguments)

    def _apply(self, name: str, operation, arguments: list) -> object:
        fn = self.impls.get(name)
        if fn is None:
            fn = _PRELUDE_IMPLS.get(name)
        if fn is None and operation.builtin is not None:
            fn = operation.builtin
        if fn is None:
            raise BindingError(f"no implementation bound for {name!r}")
        try:
            return fn(*arguments)
        except AlgebraError:
            return ERROR


def _not(value: bool) -> bool:
    return not value


def _and(left: bool, right: bool) -> bool:
    return left and right


def _or(left: bool, right: bool) -> bool:
    return left or right


_PRELUDE_IMPLS: dict[str, Callable[..., object]] = {
    "true": lambda: True,
    "false": lambda: False,
    "not": _not,
    "and": _and,
    "or": _or,
    "zero": lambda: 0,
    "succ": lambda n: n + 1,
}


@dataclass(frozen=True)
class OracleFailure:
    """One axiom instance the implementation got wrong."""

    axiom: Axiom
    substitution: Substitution
    lhs_value: object
    rhs_value: object

    def __str__(self) -> str:
        return (
            f"axiom {self.axiom} violated at {self.substitution}: "
            f"lhs = {self.lhs_value!r}, rhs = {self.rhs_value!r}"
        )


@dataclass
class OracleReport:
    spec_name: str
    instances_checked: int = 0
    failures: list[OracleFailure] = field(default_factory=list)
    #: Instances whose evaluation stopped short of a normal form
    #: (budget exhaustion, diagnosed divergence, contained faults).
    #: Undecided is not unequal: they count separately from failures.
    undecided: int = 0
    #: Every instance up to this total size was checked (None: all were).
    complete_to: Optional[int] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self) -> str:
        verdict = "PASS, holds for all" if self.ok else "FAIL, checked"
        checked = hypothesis(self.instances_checked, self.complete_to, self.undecided)
        lines = [f"axiom oracle for {self.spec_name}: {verdict} {checked}"]
        lines.extend(f"  {failure}" for failure in self.failures[:10])
        return "\n".join(lines)


def check_axioms(
    binding: ImplementationBinding,
    instances_per_axiom: int = 25,
    axioms: Optional[tuple[Axiom, ...]] = None,
) -> OracleReport:
    """Evaluate every axiom of the binding's spec on its smallest
    ground instances through the implementation."""
    spec = binding.spec
    enumerator = GroundTermEnumerator(spec)
    report = OracleReport(spec.name)
    for axiom in axioms if axioms is not None else spec.axioms:
        taken, complete_to = prefix(
            enumerator.substitutions(axiom.lhs, axiom.rhs), instances_per_axiom
        )
        report.complete_to = tighter(report.complete_to, complete_to)
        for _, sigma in taken:
            env = {
                variable: binding.evaluate(term, {})
                for variable, term in sigma.items()
            }
            report.instances_checked += 1
            lhs_value = binding.evaluate(axiom.lhs, env)
            rhs_value = binding.evaluate(axiom.rhs, env)
            if not _values_equal(lhs_value, rhs_value):
                report.failures.append(
                    OracleFailure(axiom, sigma, lhs_value, rhs_value)
                )
    return report


def _values_equal(left: object, right: object) -> bool:
    if left is ERROR or right is ERROR:
        return left is right
    return left == right


def check_axioms_by_rewriting(
    spec: Specification,
    instances_per_axiom: int = 25,
    axioms: Optional[tuple[Axiom, ...]] = None,
    backend: str = "interpreted",
) -> OracleReport:
    """Model-check the specification against *itself* by rewriting.

    The same ground instances :func:`check_axioms` would feed a Python
    implementation are instead normalised with the rewrite engine and
    compared as normal forms (:func:`compare_by_rewriting`).  A
    consistent specification passes trivially; the check earns its keep
    as a differential harness (run once per ``backend``) and as a smoke
    test for user-written axioms.
    """
    from repro.rewriting.engine import RewriteEngine

    engine = RewriteEngine.for_specification(spec, backend=backend)
    enumerator = GroundTermEnumerator(spec)
    report = OracleReport(spec.name)
    for axiom in axioms if axioms is not None else spec.axioms:
        taken, complete_to = prefix(
            enumerator.substitutions(axiom.lhs, axiom.rhs), instances_per_axiom
        )
        with maybe_span(
            "oracle.axiom",
            spec=spec.name,
            backend=backend,
            label=axiom.label or str(axiom.lhs),
            instances=len(taken),
        ):
            unequal = compare_by_rewriting(
                engine, axiom.lhs, axiom.rhs, taken, complete_to, report
            )
        report.failures += [OracleFailure(axiom, *u) for u in unequal]
    return report


def compare_by_rewriting(
    engine, lhs: Term, rhs: Term, taken: list, complete_to, report
) -> list[tuple[Substitution, Term, Term]]:
    """Normalise both sides of each ``(size, substitution)`` in ``taken``
    in one :meth:`~repro.rewriting.engine.RewriteEngine.normalize_many_outcomes`
    batch, so shared substructure is evaluated once and one
    pathological instance cannot abort its neighbours, and tally the
    result into ``report``.  An instance stopped short of a normal form
    is undecided (not an inequality) and lowers ``complete_to`` below its
    size.  Returns the substitution and both normal forms of each
    unequal instance."""
    outcomes = engine.normalize_many_outcomes(
        [side for _, sigma in taken for side in (sigma.apply(lhs), sigma.apply(rhs))]
    )
    unequal = []
    for i, (size, sigma) in enumerate(taken):
        left, right = outcomes[2 * i], outcomes[2 * i + 1]
        if not (left.ok and right.ok):
            report.undecided += 1
            complete_to = tighter(complete_to, size - 1)
            continue
        report.instances_checked += 1
        if left.term != right.term:
            unequal.append((sigma, left.term, right.term))
    report.complete_to = tighter(report.complete_to, complete_to)
    return unequal
