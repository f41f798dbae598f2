"""Property tests for the error algebra's strictness.

Guttag's rule — "the value of any operation applied to an argument list
containing error is error" — stated once in :mod:`repro.spec.errors`
and enforced operationally by both rewrite backends.  These properties
generate arbitrary contexts around an ``error`` and check that:

* :func:`propagate_error` fires exactly when an argument position holds
  ``error`` (and the engines agree with it);
* strict propagation carries through arbitrarily deep generated
  contexts on both backends;
* ``if-then-else`` is strict in its *condition* only — an error in the
  untaken branch of a decided conditional never propagates, however
  deeply the conditionals nest.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.adt.queue import (
    ADD,
    FRONT,
    IS_EMPTY,
    QUEUE_SPEC,
    REMOVE,
    add,
    new,
    queue_term,
)
from repro.algebra.terms import App, Err, Ite, Term
from repro.rewriting import RewriteEngine
from repro.spec.errors import is_error, propagate_error
from repro.spec.prelude import item

QUEUE = QUEUE_SPEC.type_of_interest
ITEM = item("probe").sort

BACKENDS = ("interpreted", "codegen")
_ENGINES = {
    backend: RewriteEngine.for_specification(QUEUE_SPEC, backend=backend)
    for backend in BACKENDS
}

items = st.integers(0, 9).map(lambda i: item(f"i{i}"))


@st.composite
def poisoned_queues(draw) -> Term:
    """A Queue term with ``error`` buried under 0–5 strict wrappers."""
    term: Term = Err(QUEUE)
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            term = add(term, draw(items))
        else:
            term = App(REMOVE, (term,))
    return term


@st.composite
def clean_queues(draw) -> Term:
    """An ADD-only queue term (never an error, possibly empty)."""
    values = draw(st.lists(st.integers(0, 9), max_size=4))
    return queue_term(f"c{v}" for v in values)


@st.composite
def guarded_items(draw, depth: int = 3):
    """A (possibly nested) if-then-else over Item, with its *expected*
    error-ness computed by choosing branches the way a decided
    conditional does — so errors parked in untaken branches are
    expected to vanish."""
    if depth == 0 or draw(st.booleans()):
        if draw(st.booleans()):
            return Err(ITEM), True
        return draw(items), False
    length = draw(st.integers(0, 3))
    condition = App(IS_EMPTY, (queue_term(f"g{v}" for v in range(length)),))
    then_term, then_err = draw(guarded_items(depth - 1))
    else_term, else_err = draw(guarded_items(depth - 1))
    taken_err = then_err if length == 0 else else_err
    return Ite(condition, then_term, else_term), taken_err


class TestPropagateErrorRule:
    @given(poisoned=poisoned_queues())
    @settings(deadline=None)
    def test_rule_fires_on_error_arguments(self, poisoned):
        for observer in (FRONT, REMOVE, IS_EMPTY):
            step = propagate_error(App(observer, (poisoned,)))
            if isinstance(poisoned, Err):
                assert step == Err(observer.range)
            else:
                # error is buried, not at an argument position: the
                # root rule must not fire (propagation is one strict
                # step at a time, driven by innermost-first evaluation).
                assert step is None

    @given(clean=clean_queues())
    @settings(deadline=None)
    def test_rule_never_fires_on_clean_terms(self, clean):
        for observer in (FRONT, REMOVE, IS_EMPTY):
            assert propagate_error(App(observer, (clean,))) is None

    @given(poisoned=poisoned_queues())
    @settings(deadline=None)
    def test_is_error_only_on_error_constants(self, poisoned):
        assert is_error(Err(QUEUE))
        assert is_error(Err(ITEM))
        assert is_error(poisoned) == isinstance(poisoned, Err)


@pytest.mark.parametrize("backend", BACKENDS)
class TestStrictPropagationThroughContexts:
    @given(poisoned=poisoned_queues())
    @settings(deadline=None)
    def test_error_reaches_every_observer(self, backend, poisoned):
        engine = _ENGINES[backend]
        for observer in (FRONT, REMOVE, IS_EMPTY):
            result = engine.normalize(App(observer, (poisoned,)))
            assert is_error(result)
            assert result.sort == observer.range

    @given(poisoned=poisoned_queues(), clean=clean_queues(), element=items)
    @settings(deadline=None)
    def test_error_survives_interleaved_clean_structure(
        self, backend, poisoned, clean, element
    ):
        # ADD clean material on top of the poison: strictness must
        # still win, whatever surrounds the error.
        engine = _ENGINES[backend]
        term = add(add(poisoned, element), element)
        assert is_error(engine.normalize(App(IS_EMPTY, (term,))))
        assert not is_error(engine.normalize(App(IS_EMPTY, (clean,))))

    @given(poisoned=poisoned_queues())
    @settings(deadline=None)
    def test_error_condition_poisons_nested_conditionals(
        self, backend, poisoned
    ):
        engine = _ENGINES[backend]
        inner = Ite(App(IS_EMPTY, (poisoned,)), item("a"), item("b"))
        outer = Ite(App(IS_EMPTY, (new(),)), inner, item("c"))
        result = engine.normalize(outer)
        assert is_error(result)
        assert result.sort == ITEM

    @given(guarded=guarded_items())
    @settings(deadline=None)
    def test_untaken_branches_never_propagate(self, backend, guarded):
        # The load-bearing laziness property: a decided conditional
        # evaluates only its chosen branch, so error-ness of the whole
        # is exactly the error-ness along the taken path.
        term, expect_error = guarded
        engine = _ENGINES[backend]
        assert is_error(engine.normalize(term)) == expect_error

    @given(guarded=guarded_items())
    @settings(deadline=None)
    def test_backends_agree_on_guarded_terms(self, backend, guarded):
        term, _ = guarded
        assert _ENGINES[backend].normalize(term) == _ENGINES[
            "interpreted"
        ].normalize(term)
