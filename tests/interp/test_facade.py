"""Unit tests for generated façade classes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spec.errors import AlgebraError
from repro.interp.facade import FacadeValue, facade_class, python_name
from repro.adt.queue import ListQueue, QUEUE_SPEC
from repro.adt.symboltable import SYMBOLTABLE_SPEC, SymbolTable


class TestPythonName:
    @pytest.mark.parametrize(
        "operation, expected",
        [
            ("ADD", "add"),
            ("IS_EMPTY?", "is_empty"),
            ("IS.NEWSTACK?", "is_newstack"),
            ("ENTERBLOCK'", "enterblock"),
            ("2COOL", "op_2cool"),
            ("while", "while_"),
        ],
    )
    def test_mapping(self, operation, expected):
        assert python_name(operation) == expected


class TestQueueFacade:
    @pytest.fixture(scope="class")
    def Queue(self):
        return facade_class(QUEUE_SPEC)

    def test_class_name(self, Queue):
        assert Queue.__name__ == "Queue"

    def test_constructor_is_static(self, Queue):
        queue = Queue.new()
        assert isinstance(queue, FacadeValue)

    def test_instance_methods_chain(self, Queue):
        queue = Queue.new().add("a").add("b")
        assert queue.front() == "a"

    def test_observers_return_python_values(self, Queue):
        assert Queue.new().is_empty() is True
        assert Queue.new().add("x").is_empty() is False

    def test_toi_results_stay_facade_values(self, Queue):
        removed = Queue.new().add("a").add("b").remove()
        assert isinstance(removed, FacadeValue)
        assert removed.front() == "b"

    def test_errors_raise(self, Queue):
        with pytest.raises(AlgebraError):
            Queue.new().front()

    def test_equality_is_abstract(self, Queue):
        left = Queue.new().add("a").add("b").remove()
        right = Queue.new().add("b")
        assert left == right
        assert hash(left) == hash(right)

    def test_repr_shows_term(self, Queue):
        assert "ADD(NEW, 'a')" in repr(Queue.new().add("a"))


class TestSymboltableFacade:
    @pytest.fixture(scope="class")
    def Table(self):
        return facade_class(SYMBOLTABLE_SPEC)

    def test_scoped_lookup(self, Table):
        table = Table.init().add("x", "int").enterblock().add("x", "real")
        assert table.retrieve("x") == "real"
        assert table.leaveblock().retrieve("x") == "int"

    def test_is_inblock(self, Table):
        table = Table.init().add("x", "int").enterblock()
        assert table.is_inblock("x") is False

    def test_retrieve_missing_raises(self, Table):
        with pytest.raises(AlgebraError):
            Table.init().retrieve("ghost")


class TestSpecImplEquivalence:
    """The paper's transparency claim, tested: random operation scripts
    give the same observable results through the façade (spec-run) and
    through the hand implementation."""

    Queue = facade_class(QUEUE_SPEC)

    @given(
        script=st.lists(
            st.one_of(
                st.tuples(st.just("add"), st.integers(0, 9)),
                st.tuples(st.just("remove")),
            ),
            max_size=10,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_queue_scripts_agree(self, script):
        facade = self.Queue.new()
        model = ListQueue.new()
        for step in script:
            if step[0] == "add":
                facade = facade.add(step[1])
                model = model.add(step[1])
            else:
                if model.is_empty():
                    continue
                facade = facade.remove()
                model = model.remove()
        assert facade.is_empty() == model.is_empty()
        if not model.is_empty():
            assert facade.front() == model.front()

    @given(
        script=st.lists(
            st.one_of(
                st.tuples(st.just("enter")),
                st.tuples(st.just("leave")),
                st.tuples(
                    st.just("add"),
                    st.sampled_from(["x", "y"]),
                    st.sampled_from(["int", "real"]),
                ),
            ),
            max_size=8,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_symboltable_scripts_agree(self, script):
        Table = facade_class(SYMBOLTABLE_SPEC)
        facade = Table.init()
        model = SymbolTable.init()
        depth = 1
        for step in script:
            if step[0] == "enter":
                facade = facade.enterblock()
                model = model.enterblock()
                depth += 1
            elif step[0] == "leave":
                if depth > 1:
                    facade = facade.leaveblock()
                    model = model.leaveblock()
                    depth -= 1
            else:
                facade = facade.add(step[1], step[2])
                model = model.add(step[1], step[2])
        for name in ("x", "y"):
            assert facade.is_inblock(name) == model.is_inblock(name)
            try:
                expected = model.retrieve(name)
            except AlgebraError:
                with pytest.raises(AlgebraError):
                    facade.retrieve(name)
            else:
                assert facade.retrieve(name) == expected


class TestBatchEvaluation:
    def test_budget_bounds_every_method(self):
        from repro.rewriting import RewriteLimitError
        from repro.runtime import EvaluationBudget

        Queue = facade_class(QUEUE_SPEC, budget=EvaluationBudget(fuel=500))
        q = Queue.new()
        for i in range(400):
            q = q.add(i)
        assert q.add("x").is_empty() is False
        with pytest.raises(RewriteLimitError) as excinfo:
            q.front()
        assert excinfo.value.reason == "fuel"

    def test_compiled_facade_agrees_with_interpreted(self):
        Interp = facade_class(QUEUE_SPEC, name="QueueI")
        Comp = facade_class(QUEUE_SPEC, name="QueueC", backend="codegen")
        for cls in (Interp, Comp):
            q = cls.new().add("a").add("b")
            assert q.front() == "a"
            assert q.remove().front() == "b"
            assert q.is_empty() is False
