"""Property tests for the hash-consed term substrate.

Interning is meant to be *transparent*: all a client can observe is that
structurally equal terms are now also identical, and that the cached
structural metadata (`hash`, `size`, `depth`, `is_ground`) agrees with
what a from-scratch recomputation would give.  These properties pin that
down over randomly drawn constructor terms.
"""

import pickle
from collections import namedtuple

from hypothesis import given, settings

from repro.algebra.terms import (
    App,
    Err,
    Ite,
    Lit,
    Term,
    Var,
    app,
    intern_table_size,
)
from repro.adt.queue import ADD, QUEUE_SPEC, queue_term
from repro.spec.parser import parse_term
from repro.spec.printer import term_to_dsl
from repro.spec.prelude import item
from repro.testing.strategies import term_strategy

queue_terms = term_strategy(QUEUE_SPEC, QUEUE_SPEC.type_of_interest)

#: A tuple subclass for literal values (module level, so it pickles).
Pair = namedtuple("Pair", "left right")


def rebuild(term: Term) -> Term:
    """A structurally identical term built bottom-up through the public
    constructors (exercising the intern table on every node)."""
    if isinstance(term, Var):
        return Var(term.name, term.sort)
    if isinstance(term, Lit):
        return Lit(term.value, term.sort)
    if isinstance(term, Err):
        return Err(term.sort)
    if isinstance(term, Ite):
        return Ite(
            rebuild(term.cond),
            rebuild(term.then_branch),
            rebuild(term.else_branch),
        )
    assert isinstance(term, App)
    return App(term.op, tuple(rebuild(arg) for arg in term.args))


def naive_hash(term: Term) -> int:
    """The structural hash recomputed from scratch, reading no child's
    cached ``_hash``."""
    if isinstance(term, Var):
        return hash((Var, term.name, term.sort))
    if isinstance(term, Lit):
        return hash((Lit, type(term.value), term.value, term.sort))
    if isinstance(term, Err):
        return hash((Err, term.sort))
    if isinstance(term, Ite):
        return hash(("__ite__", *map(naive_hash, term.children())))
    assert isinstance(term, App)
    op = term.op
    return hash((hash((op.name, op.domain, op.range)), *map(naive_hash, term.args)))


def naive_size(term: Term) -> int:
    return 1 + sum(naive_size(kid) for kid in term.children())


def naive_depth(term: Term) -> int:
    kids = term.children()
    return 1 + (max(naive_depth(kid) for kid in kids) if kids else 0)


def naive_ground(term: Term) -> bool:
    if isinstance(term, Var):
        return False
    return all(naive_ground(kid) for kid in term.children())


class TestMaximalSharing:
    @given(queue_terms)
    @settings(max_examples=200)
    def test_structural_equality_is_identity(self, term):
        assert rebuild(term) is term

    @given(queue_terms)
    @settings(max_examples=100)
    def test_pickle_round_trips_to_same_node(self, term):
        assert pickle.loads(pickle.dumps(term)) is term

    def test_shared_subterms_are_one_object(self):
        q = queue_term(["a", "b"])
        bigger = app(ADD, q, item("c"))
        assert bigger.args[0] is q

    def test_table_grows_and_shrinks(self):
        # Size deltas with fresh payloads.
        baseline = intern_table_size()
        held = queue_term(["only-in-this-test-1", "only-in-this-test-2"])
        grown = intern_table_size()
        assert grown > baseline
        del held
        # Weak references: dropping the last strong reference frees the
        # table slots again (eventually; CPython refcounts immediately).
        assert intern_table_size() < grown


class TestLiteralValueTypes:
    """``True == 1 == 1.0`` in Python, with equal hashes; as literals
    they are three different values."""

    def test_bool_int_and_float_literals_are_distinct_nodes(self):
        sort = QUEUE_SPEC.type_of_interest
        one = Lit(1, sort)  # interned first, and kept alive
        assert Lit(True, sort).value is True
        assert type(Lit(1.0, sort).value) is float
        assert Lit(True, sort) is not one and Lit(True, sort) != one
        assert Lit(1.0, sort) != one
        assert Lit(1, sort) is one

    def test_nested_tuple_element_types_are_distinct_literals(self):
        sort = QUEUE_SPEC.type_of_interest
        held = Lit(("x", 1), sort)  # interned first, and kept alive
        flagged = Lit(("x", True), sort)
        assert flagged is not held and flagged != held
        assert flagged.value[1] is True
        assert Lit((("x", 1.0),), sort) != Lit((("x", 1),), sort)
        assert Lit(("x", 1), sort) is held
        assert pickle.loads(pickle.dumps(flagged)) is flagged

    def test_frozenset_element_types_are_distinct_literals(self):
        sort = QUEUE_SPEC.type_of_interest
        held = Lit(frozenset({1}), sort)  # interned first, and kept alive
        flagged = Lit(frozenset({True}), sort)
        assert flagged is not held and flagged != held
        assert next(iter(flagged.value)) is True
        # Equal sets whose elements swap types: {1, 2.0} == {1.0, 2}.
        assert Lit(frozenset({1, 2.0}), sort) != Lit(frozenset({1.0, 2}), sort)
        assert Lit(frozenset({1}), sort) is held
        assert pickle.loads(pickle.dumps(flagged)) is flagged

    def test_namedtuple_element_types_are_distinct_literals(self):
        sort = QUEUE_SPEC.type_of_interest
        held = Lit(Pair(1, "x"), sort)  # interned first, and kept alive
        flagged = Lit(Pair(True, "x"), sort)
        assert flagged is not held and flagged != held
        assert flagged.value.left is True
        assert Lit(Pair(1, "x"), sort) is held
        # A namedtuple equals the plain tuple, but is another literal.
        assert Lit((1, "x"), sort) != held
        assert pickle.loads(pickle.dumps(flagged)) is flagged

    def test_pickle_keeps_the_value_type(self):
        sort = QUEUE_SPEC.type_of_interest
        held = Lit(0, sort)
        assert pickle.loads(pickle.dumps(Lit(False, sort))).value is False
        assert held.value == 0 and held.value is not False


class TestCachedMetadata:
    @given(queue_terms)
    @settings(max_examples=200)
    def test_hash_matches_structural_recomputation(self, term):
        assert hash(term) == naive_hash(term)

    @given(queue_terms)
    @settings(max_examples=200)
    def test_size_depth_ground_agree_with_naive_walk(self, term):
        assert term.size() == naive_size(term)
        assert term.depth() == naive_depth(term)
        assert term.is_ground() == naive_ground(term)

    def test_open_terms_report_not_ground(self):
        q = Var("q", QUEUE_SPEC.type_of_interest)
        term = app(ADD, q, item("a"))
        assert not term.is_ground()
        assert term.variables() == {q}


class TestDslRoundTrip:
    @given(queue_terms)
    @settings(max_examples=100)
    def test_print_parse_yields_same_interned_node(self, term):
        text = term_to_dsl(term)
        parsed = parse_term(text, QUEUE_SPEC, expected=term.sort)
        assert parsed is term

