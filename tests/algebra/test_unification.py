"""Unit tests for unification."""

import pytest

from repro.algebra.signature import Operation
from repro.algebra.sorts import Sort
from repro.algebra.terms import app, err, lit, var
from repro.algebra.unification import rename_apart, unify

T = Sort("T")
E = Sort("E")

MK = Operation("mk", (), T)
GROW = Operation("grow", (T, E), T)
PEEK = Operation("peek", (T,), E)

t = var("t", T)
u = var("u", T)
e = var("e", E)
f = var("f", E)


class TestUnify:
    def test_identical_terms_unify_empty(self):
        sigma = unify(app(MK), app(MK))
        assert sigma is not None and len(sigma) == 0

    def test_variable_against_term(self):
        sigma = unify(t, app(MK))
        assert sigma is not None and sigma[t] == app(MK)

    def test_symmetric_variable_binding(self):
        sigma = unify(app(MK), t)
        assert sigma is not None and sigma[t] == app(MK)

    def test_two_variables_unify(self):
        sigma = unify(t, u)
        assert sigma is not None
        assert sigma.apply(t) == sigma.apply(u)

    def test_structural_decomposition(self):
        sigma = unify(app(GROW, t, e), app(GROW, app(MK), f))
        assert sigma is not None
        assert sigma[t] == app(MK)
        assert sigma.apply(e) == sigma.apply(f)

    def test_head_clash_fails(self):
        assert unify(app(PEEK, t), lit("a", E)) is None

    def test_occurs_check(self):
        assert unify(t, app(GROW, t, e)) is None

    def test_sort_clash_fails(self):
        # t: T can never unify with a term of sort E
        assert unify(t, lit("a", E)) is None

    def test_literal_vs_literal(self):
        assert unify(lit("a", E), lit("a", E)) is not None
        assert unify(lit("a", E), lit("b", E)) is None

    def test_error_constants(self):
        assert unify(err(T), err(T)) is not None
        assert unify(err(T), app(MK)) is None

    def test_mgu_property(self):
        left = app(GROW, t, e)
        right = app(GROW, u, lit("a", E))
        sigma = unify(left, right)
        assert sigma is not None
        assert sigma.apply(left) == sigma.apply(right)

    def test_deep_unification_resolves_chains(self):
        # t = grow(u, e), u = mk ==> t fully resolved
        sigma = unify(
            app(GROW, t, f), app(GROW, app(GROW, u, e), lit("a", E))
        )
        assert sigma is not None
        resolved = sigma.apply(app(GROW, t, f))
        assert resolved == sigma.apply(
            app(GROW, app(GROW, u, e), lit("a", E))
        )


class TestRenameApart:
    def test_renames_clashing_variables(self):
        term = app(GROW, t, e)
        renamed, _ = rename_apart(term, {t})
        assert t not in renamed.variables()
        assert e in renamed.variables()

    def test_no_clash_is_identity(self):
        term = app(GROW, t, e)
        renamed, sigma = rename_apart(term, {u})
        assert renamed == term
        assert len(sigma) == 0

    def test_renamed_term_is_variant(self):
        from repro.algebra.matching import variant_of

        term = app(GROW, t, e)
        renamed, _ = rename_apart(term, {t, e})
        assert variant_of(term, renamed)

    def test_renaming_depends_only_on_arguments(self):
        term = app(GROW, t, e)
        first, _ = rename_apart(term, {t})
        rename_apart(app(GROW, u, e), {u, e})
        again, _ = rename_apart(term, {t})
        assert first == again == app(GROW, var("t#1", T), e)

    def test_fresh_name_avoids_taken_variables(self):
        _, sigma = rename_apart(app(GROW, t, e), {t, var("t#1", T)})
        assert sigma.apply(t) == var("t#2", T)

    def test_fresh_name_avoids_the_terms_own_variables(self):
        term = app(GROW, app(GROW, t, var("e#1", E)), e)
        renamed, sigma = rename_apart(term, {e})
        assert sigma.apply(e) == var("e#2", E)
        assert len(renamed.variables()) == 3
