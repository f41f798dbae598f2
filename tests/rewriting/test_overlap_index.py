"""The head-symbol index in ``all_critical_pairs`` drops no overlap.

``all_critical_pairs`` only tries ``critical_pairs_between(outer,
inner)`` when ``inner``'s head symbol occurs at a non-variable position
of ``outer.lhs``.  Here it must return exactly what the plain double
loop returns — same pairs, overlaps, positions and order — on every
spec under ``specs/``, on every single-axiom deletion of each, and on
each spec widened with maximally overlapping rules (the paper's specs
are non-overlapping, so without them both lists would be empty).
"""

from pathlib import Path

import pytest

from repro.algebra.terms import App, Var
from repro.spec.parser import parse_specifications
from repro.rewriting.critical_pairs import (
    all_critical_pairs,
    critical_pairs_between,
)
from repro.rewriting.rules import RewriteRule, rule_from_axiom

SPEC_DIR = Path(__file__).resolve().parents[2] / "specs"


def _specs():
    for path in sorted(SPEC_DIR.glob("*.spec")):
        for spec in parse_specifications(path.read_text()):
            yield path.name, spec


def _cases():
    for file_name, spec in _specs():
        yield pytest.param(spec, None, id=f"{file_name}:{spec.name}")
        for axiom in spec.axioms:
            yield pytest.param(
                spec, axiom, id=f"{file_name}:{spec.name}-without-{axiom.label}"
            )


def brute_force_pairs(rules):
    rules = list(rules)
    pairs = []
    for outer in rules:
        for inner in rules:
            pairs.extend(critical_pairs_between(outer, inner))
    return pairs


def general_rules(rules):
    """``f(x1, ..., xn) -> f(x1, ..., xn)`` for every operation on a
    left-hand side: each overlaps every position headed by ``f``."""
    operations = {}
    for rule in rules:
        for _, node in rule.lhs.subterms():
            if isinstance(node, App):
                operations.setdefault(node.op.name, node.op)
    general = []
    for op in operations.values():
        args = [Var(f"g{i}", sort) for i, sort in enumerate(op.domain)]
        general.append(RewriteRule(App(op, args), App(op, args), "general"))
    return general


@pytest.mark.parametrize("spec, deleted", list(_cases()))
def test_index_matches_double_loop(spec, deleted):
    rules = [
        rule_from_axiom(axiom)
        for axiom in spec.all_axioms()
        if axiom is not deleted
    ]
    assert all_critical_pairs(rules) == brute_force_pairs(rules)


@pytest.mark.parametrize(
    "spec", [s for _, s in _specs()], ids=lambda spec: spec.name
)
def test_index_matches_double_loop_with_overlaps(spec):
    base = [rule_from_axiom(axiom) for axiom in spec.all_axioms()]
    rules = base + general_rules(base)
    pairs = all_critical_pairs(rules)
    assert pairs == brute_force_pairs(rules)
    # Root and nested overlaps both occur, so the comparison has teeth.
    assert any(pair.position == () for pair in pairs)
    assert any(pair.position != () for pair in pairs)
