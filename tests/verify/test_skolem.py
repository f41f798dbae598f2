"""Unit tests for skolemization."""

from repro.algebra.signature import Operation
from repro.algebra.sorts import Sort
from repro.algebra.terms import App, app, var
from repro.rewriting.rules import RuleSet
from repro.verify.prover import EquationalProver
from repro.verify.skolem import fresh_constant, is_skolem, skolemize_pair

T = Sort("T")
E = Sort("E")

GROW = Operation("grow", (T, E), T)

t = var("t", T)
e = var("e", E)


class TestFreshConstant:
    def test_sort_preserved(self):
        constant = fresh_constant("t", T)
        assert constant.sort == T

    def test_uniqueness(self):
        assert fresh_constant("t", T) != fresh_constant("t", T)

    def test_recognised_as_skolem(self):
        assert is_skolem(fresh_constant("t", T))

    def test_ordinary_terms_not_skolem(self):
        assert not is_skolem(app(GROW, fresh_constant("t", T), fresh_constant("e", E)))
        assert not is_skolem(t)


class TestSkolemize:
    """The one skolemizer, ``skolemize_pair``, on what a single-term
    form used to cover."""

    def test_all_variables_replaced(self):
        lhs, rhs, mapping = skolemize_pair(app(GROW, t, e), e)
        assert not lhs.variables() and not rhs.variables()
        assert set(mapping) == {t, e}

    def test_existing_mapping_reused(self):
        table = {}
        first, _, _ = skolemize_pair(t, t, skolems=table)
        lhs, _, mapping = skolemize_pair(app(GROW, t, e), t, skolems=table)
        assert lhs.children()[0] is first
        assert set(table) == {t, e}
        assert mapping == table

    def test_ground_term_unchanged(self):
        constant = fresh_constant("t", T)
        lhs, rhs, mapping = skolemize_pair(constant, constant)
        assert lhs is constant and rhs is constant and mapping == {}


class TestSkolemizePair:
    def test_shared_constants(self):
        lhs, rhs, mapping = skolemize_pair(app(GROW, t, e), t)
        assert lhs.children()[0] == rhs
        assert set(mapping) == {t, e}

    def test_keep_leaves_variable_free(self):
        lhs, rhs, mapping = skolemize_pair(app(GROW, t, e), t, keep=[t])
        assert t in lhs.variables()
        assert t not in mapping
        assert e in mapping


class TestProverSkolemize:
    """A prover's goals share one constant per variable."""

    def test_goals_share_constants(self):
        prover = EquationalProver(RuleSet([]))
        lhs, rhs, first = prover.skolemize(app(GROW, t, e), t)
        again, _, second = prover.skolemize(t, t)
        assert again is rhs is first[t] is second[t]
        assert lhs.children()[1] is first[e]

    def test_same_name_other_sort_is_another_constant(self):
        prover = EquationalProver(RuleSet([]))
        _, _, mapping = prover.skolemize(t, t)
        other = var("t", E)
        _, _, other_mapping = prover.skolemize(other, other)
        assert other_mapping[other] != mapping[t]
        assert other_mapping[other].sort == E

    def test_provers_share_nothing(self):
        one, _, _ = EquationalProver(RuleSet([])).skolemize(t, t)
        two, _, _ = EquationalProver(RuleSet([])).skolemize(t, t)
        assert one != two
