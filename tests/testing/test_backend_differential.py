"""Differential property test: all backends compute the same function.

For every specification the paper exercises, hypothesis draws random
ground observation terms (a defined operation applied to generated
constructor arguments) and the codegen backend must produce the normal
form of the interpreted reference engine (or fail identically) *and*
fire the same rules the same number of times.  This is the codegen
backend's soundness argument: agreement on arbitrary inputs, not just
the hand-picked cases in ``tests/rewriting/test_compile.py``.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra.terms import App
from repro.rewriting import RewriteEngine, RewriteLimitError
from repro.testing.strategies import term_strategy
from repro.adt.array import ARRAY_SPEC
from repro.adt.queue import QUEUE_SPEC
from repro.adt.stack import STACK_SPEC
from repro.adt.symboltable import SYMBOLTABLE_SPEC

SPECS = {
    "Queue": QUEUE_SPEC,
    "Stack": STACK_SPEC,
    "Array": ARRAY_SPEC,
    "Symboltable": SYMBOLTABLE_SPEC,
}

#: Sentinel normal form for "the engine gave up" — both backends must
#: give up on the same inputs for the differential check to count it.
LIMIT = object()


def observation_strategy(spec):
    """Applications of the spec's defined operations to ground args."""
    heads = sorted(
        {axiom.head for axiom in spec.all_axioms()}, key=lambda op: op.name
    )
    alternatives = []
    for op in heads:
        try:
            argument_strategies = [
                term_strategy(spec, sort, max_leaves=6) for sort in op.domain
            ]
        except ValueError:
            continue  # a domain sort without ground constructor terms
        alternatives.append(
            st.tuples(*argument_strategies).map(
                lambda args, o=op: App(o, args)
            )
        )
    assert alternatives, f"no observable operations in {spec.name}"
    return st.one_of(alternatives)


BACKENDS = ("interpreted", "codegen")

_STRATEGIES = {name: observation_strategy(spec) for name, spec in SPECS.items()}
_ENGINES = {
    name: {
        backend: RewriteEngine.for_specification(spec, backend=backend)
        for backend in BACKENDS
    }
    for name, spec in SPECS.items()
}


def _normalize(engine, term):
    try:
        return engine.normalize(term)
    except RewriteLimitError:
        return LIMIT


def _firings(engine):
    return {rule: count for rule, count in engine.stats.firings.ranked()}


@pytest.mark.parametrize("name", sorted(SPECS))
@given(data=st.data())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.differing_executors],
)
def test_backends_agree_on_random_observations(name, data):
    term = data.draw(_STRATEGIES[name])
    results = {}
    deltas = {}
    for backend in BACKENDS:
        engine = _ENGINES[name][backend]
        before = _firings(engine)
        results[backend] = _normalize(engine, term)
        after = _firings(engine)
        deltas[backend] = {
            rule: count - before.get(rule, 0)
            for rule, count in after.items()
            if count != before.get(rule, 0)
        }
    reference = results["interpreted"]
    for backend in BACKENDS[1:]:
        assert results[backend] == reference, (
            f"backend disagreement on {term}: "
            f"interpreted={reference}, {backend}={results[backend]}"
        )
        assert deltas[backend] == deltas["interpreted"], (
            f"firing-count disagreement on {term}: "
            f"interpreted={deltas['interpreted']}, "
            f"{backend}={deltas[backend]}"
        )


@pytest.mark.parametrize("name", sorted(SPECS))
@given(data=st.data())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.differing_executors],
)
def test_batch_matches_single_normalization(name, data):
    terms = data.draw(st.lists(_STRATEGIES[name], min_size=1, max_size=5))
    engine = _ENGINES[name]["codegen"]
    try:
        batch = engine.normalize_many(terms)
    except RewriteLimitError:
        return  # single-term path would also give up; nothing to compare
    assert batch == [_normalize(engine, t) for t in terms]


class TestRewritingOracle:
    """``check_axioms_by_rewriting`` is the spec-level differential
    harness: a consistent spec must pass under either backend."""

    @pytest.mark.parametrize("backend", list(BACKENDS))
    def test_queue_axioms_hold(self, backend):
        from repro.testing.oracle import check_axioms_by_rewriting

        report = check_axioms_by_rewriting(
            QUEUE_SPEC, instances_per_axiom=10, backend=backend
        )
        assert report.ok, str(report)
        assert report.instances_checked > 0

    @pytest.mark.parametrize("backend", ["codegen"])
    def test_symboltable_axioms_hold(self, backend):
        from repro.testing.oracle import check_axioms_by_rewriting

        report = check_axioms_by_rewriting(
            SYMBOLTABLE_SPEC, instances_per_axiom=5, backend=backend
        )
        assert report.ok, str(report)
        assert report.instances_checked > 0
