"""Rewrite rules and rule sets.

Each axiom ``lhs = rhs`` is *oriented* left-to-right into a rewrite rule;
the axioms' definitional shape (defined operation over constructor
patterns on the left) makes this orientation terminating for the paper's
specifications.  A :class:`RuleSet` indexes rules in a *discrimination
tree*: rules are grouped by head symbol, then refined by the top symbol
of each argument position, so the engine only tries rules whose
left-hand side can possibly match the subject's shape.

A rule set may be an *overlay* on a base rule set: it indexes only its
own rules and answers every query with the base's rules first, then its
own.  The prover layers the few ground rules of a fact set over the
specification's shared index this way, without copying it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Optional, Sequence

from repro.algebra.matching import match_bindings
from repro.algebra.signature import Operation
from repro.algebra.substitution import apply_bindings
from repro.algebra.terms import App, Err, Lit, Term
from repro.spec.axioms import Axiom
from repro.spec.specification import Specification


@dataclass(frozen=True)
class RewriteRule:
    """An oriented equation ``lhs -> rhs``."""

    lhs: Term
    rhs: Term
    label: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.lhs, App):
            raise ValueError(
                f"rewrite rule left-hand side must be an application: {self.lhs}"
            )
        extra = self.rhs.variables() - self.lhs.variables()
        if extra:
            names = ", ".join(sorted(v.name for v in extra))
            raise ValueError(f"rule introduces variables on the right: {names}")

    @property
    def head(self) -> Operation:
        assert isinstance(self.lhs, App)
        return self.lhs.op

    def apply_at_root(self, term: Term) -> Optional[Term]:
        """The result of one rewrite at the root of ``term``, or ``None``."""
        bindings = match_bindings(self.lhs, term)
        if bindings is None:
            return None
        return apply_bindings(self.rhs, bindings)

    def as_axiom(self) -> Axiom:
        return Axiom(self.lhs, self.rhs, self.label)

    def __str__(self) -> str:
        prefix = f"[{self.label}] " if self.label else ""
        return f"{prefix}{self.lhs} -> {self.rhs}"


def rule_from_axiom(axiom: Axiom) -> RewriteRule:
    """Orient ``axiom`` left-to-right."""
    return RewriteRule(axiom.lhs, axiom.rhs, axiom.label)


# ----------------------------------------------------------------------
# Discrimination-tree indexing
# ----------------------------------------------------------------------

#: Edge label standing for "this pattern position matches anything"
#: (a variable, or an ``Ite`` pattern the shape test cannot refine).
_WILDCARD = ("*",)

#: Key under which a tree node stores the rule indices ending there.
_RULES = ("rules",)


def _pattern_shape(term: Term):
    """The discrimination edge for one argument of a rule's LHS."""
    if isinstance(term, App):
        return ("app", term.op.name)
    if isinstance(term, Lit):
        return ("lit", term.sort, term.value)
    if isinstance(term, Err):
        return ("err", term.sort)
    return _WILDCARD  # Var, or Ite (matched structurally, not indexed)


def _subject_shape(term: Term):
    """The edge a subject argument selects.  Must agree with
    :func:`_pattern_shape` exactly when a root match is possible:

    * a pattern ``App``/``Lit``/``Err`` only matches a subject of the
      same top symbol (literal/error equality is sort+value equality,
      which the tuple keys reproduce);
    * a subject ``Var`` or ``Ite`` is only matched by a pattern
      variable, i.e. the wildcard edge — so it gets a shape no pattern
      edge carries.
    """
    if isinstance(term, App):
        return ("app", term.op.name)
    if isinstance(term, Lit):
        return ("lit", term.sort, term.value)
    if isinstance(term, Err):
        return ("err", term.sort)
    return ("open",)


# Substrate counters for the bounded shape memo, as bare list cells so
# this layer imports nothing from the observability layer (the global
# registry in repro.obs.metrics adopts the slots).  Shared across all
# discrimination trees in the process.
SHAPE_MEMO_HITS = [0]
SHAPE_MEMO_MISSES = [0]


class _DiscriminationTree:
    """Per-head-symbol index, one level per argument position.

    Nodes are dicts; an edge is the argument's top-symbol shape or the
    wildcard.  A query follows, at each level, both the subject's exact
    edge and the wildcard edge, and unions the rule indices reached —
    a superset of the rules that can match, filtered down by the real
    matcher.  Query results are memoised per shape path (bounded)."""

    __slots__ = ("root", "_memo")

    def __init__(self) -> None:
        self.root: dict = {}
        self._memo: dict[tuple, tuple[RewriteRule, ...]] = {}

    def insert(self, pattern_args: Sequence[Term], index: int) -> None:
        node = self.root
        for arg in pattern_args:
            node = node.setdefault(_pattern_shape(arg), {})
        node.setdefault(_RULES, []).append(index)
        self._memo.clear()

    def retrieve(
        self, subject_args: Sequence[Term], rules: Sequence[RewriteRule]
    ) -> tuple[RewriteRule, ...]:
        shapes = tuple(_subject_shape(arg) for arg in subject_args)
        memo = self._memo
        hit = memo.get(shapes)
        if hit is not None:
            SHAPE_MEMO_HITS[0] += 1
            return hit
        SHAPE_MEMO_MISSES[0] += 1
        frontier = [self.root]
        for shape in shapes:
            advanced: list[dict] = []
            for node in frontier:
                child = node.get(shape)
                if child is not None:
                    advanced.append(child)
                wild = node.get(_WILDCARD)
                if wild is not None:
                    advanced.append(wild)
            if not advanced:
                frontier = []
                break
            frontier = advanced
        indices: list[int] = []
        for node in frontier:
            indices.extend(node.get(_RULES, ()))
        indices.sort()  # original rule order = match order
        result = tuple(rules[i] for i in indices)
        if len(memo) < 1024:  # literal-valued edges keep this finite
            memo[shapes] = result
        return result


class RuleSet:
    """A collection of rewrite rules behind a discrimination-tree index.

    Rule order is preserved: among the candidates for one subject the
    first matching rule fires, so a specification's axiom order is its
    match order (the paper's axiom sets are non-overlapping, making
    order irrelevant for them, but user specs under debugging may
    overlap).

    With ``base``, the set is an overlay: a view of ``base``'s rules
    followed by its own, in the order a copy of ``base`` extended by
    :meth:`add` would have.  ``base`` is read, never written, so rules
    added to the overlay stay out of it."""

    def __init__(
        self,
        rules: Iterable[RewriteRule] = (),
        base: Optional["RuleSet"] = None,
    ) -> None:
        self.base = base
        self._rules: list[RewriteRule] = []
        self._by_head: dict[str, list[RewriteRule]] = {}
        self._trees: dict[str, _DiscriminationTree] = {}
        for rule in rules:
            self.add(rule)

    def add(self, rule: RewriteRule) -> None:
        index = len(self._rules)
        self._rules.append(rule)
        self._by_head.setdefault(rule.head.name, []).append(rule)
        tree = self._trees.get(rule.head.name)
        if tree is None:
            tree = self._trees[rule.head.name] = _DiscriminationTree()
        assert isinstance(rule.lhs, App)
        tree.insert(rule.lhs.args, index)

    def for_head(self, operation: Operation) -> Sequence[RewriteRule]:
        """All rules whose left-hand side is headed by ``operation``,
        without argument-shape refinement (for exhaustive traversals
        such as completion's)."""
        own = self._by_head.get(operation.name, ())
        if self.base is None:
            return own
        return tuple(self.base.for_head(operation)) + tuple(own)

    def candidates(self, term: App) -> Sequence[RewriteRule]:
        """Rules that can possibly rewrite ``term`` at the root: same
        head symbol, argument shapes compatible position by position."""
        tree = self._trees.get(term.op.name)
        own = () if tree is None else tree.retrieve(term.args, self._rules)
        if self.base is None:
            return own
        below = self.base.candidates(term)
        if not own:
            return below
        return below + own if below else own

    def heads(self) -> set[str]:
        """Names of all operations that head some rule."""
        heads = set(self._by_head)
        if self.base is not None:
            heads |= self.base.heads()
        return heads

    def fingerprint(self, extra: str = "") -> str:
        """A structural digest of the rule set.

        Two rule sets with the same fingerprint compile to the same
        generated module, so the codegen backend keys its module cache
        on it (see :mod:`repro.rewriting.codegen`).  The digest covers
        rule order, labels, both sides of every rule, and — because the
        emitted dispatch depends on them — every mentioned operation's
        name, sorts, and whether it carries a builtin evaluator.
        ``extra`` folds in compiler options (the cache mode)."""
        h = hashlib.sha256()
        h.update(extra.encode())
        for rule in self:
            h.update(b"\x00rule\x00")
            h.update(str(rule).encode())
            for side in (rule.lhs, rule.rhs):
                for _, node in side.subterms():
                    if isinstance(node, App):
                        op = node.op
                        h.update(
                            f"{op.name}/{len(op.domain)}"
                            f"->{op.range}:{int(op.builtin is not None)};"
                            .encode()
                        )
                    else:
                        h.update(f"{type(node).__name__}:{node.sort};".encode())
        return h.hexdigest()

    def __iter__(self) -> Iterator[RewriteRule]:
        if self.base is None:
            return iter(self._rules)
        return chain(self.base, self._rules)

    def __len__(self) -> int:
        own = len(self._rules)
        return own if self.base is None else len(self.base) + own

    def __str__(self) -> str:
        return "\n".join(str(rule) for rule in self)

    @classmethod
    def from_axioms(cls, axioms: Iterable[Axiom]) -> "RuleSet":
        return cls(rule_from_axiom(axiom) for axiom in axioms)

    @classmethod
    def from_specification(cls, spec: Specification) -> "RuleSet":
        """All axioms of ``spec`` and every level it uses, oriented."""
        return cls.from_axioms(spec.all_axioms())
