"""Unit tests for operation classification."""

import pytest

from repro.analysis.classify import classify
from repro.adt.boundedqueue import BOUNDED_QUEUE_SPEC
from repro.adt.knowlist import KNOWLIST_SPEC


class TestQueueClassification:
    def test_constructors(self, queue_spec):
        cls = classify(queue_spec)
        assert {op.name for op in cls.constructors} == {"NEW", "ADD"}

    def test_extensions(self, queue_spec):
        cls = classify(queue_spec)
        assert {op.name for op in cls.extensions} == {"REMOVE"}

    def test_observers(self, queue_spec):
        cls = classify(queue_spec)
        assert {op.name for op in cls.observers} == {"FRONT", "IS_EMPTY?"}

    def test_defined_operations(self, queue_spec):
        cls = classify(queue_spec)
        assert {op.name for op in cls.defined_operations} == {
            "REMOVE",
            "FRONT",
            "IS_EMPTY?",
        }


class TestSymboltableClassification:
    def test_three_constructors(self, symboltable_spec):
        cls = classify(symboltable_spec)
        assert {op.name for op in cls.constructors} == {
            "INIT",
            "ENTERBLOCK",
            "ADD",
        }

    def test_leaveblock_is_extension(self, symboltable_spec):
        cls = classify(symboltable_spec)
        assert {op.name for op in cls.extensions} == {"LEAVEBLOCK"}

    def test_observers(self, symboltable_spec):
        cls = classify(symboltable_spec)
        assert {op.name for op in cls.observers} == {
            "IS_INBLOCK?",
            "RETRIEVE",
        }


class TestRecursivePositions:
    def test_single_toi_argument(self, queue_spec):
        cls = classify(queue_spec)
        assert cls.recursive_argument_positions(
            queue_spec.operation("REMOVE")
        ) == (0,)

    def test_non_toi_arguments_skipped(self, symboltable_spec):
        cls = classify(symboltable_spec)
        retrieve = symboltable_spec.operation("RETRIEVE")
        assert cls.recursive_argument_positions(retrieve) == (0,)

    def test_no_toi_argument(self, queue_spec):
        cls = classify(queue_spec)
        # NEW has no arguments at all.
        assert cls.recursive_argument_positions(queue_spec.operation("NEW")) == ()


class TestOtherSpecs:
    def test_bounded_queue(self):
        cls = classify(BOUNDED_QUEUE_SPEC)
        assert {op.name for op in cls.constructors} == {"EMPTY_Q", "ADD_Q"}
        assert "SIZE_Q" in {op.name for op in cls.observers}

    def test_knowlist(self):
        cls = classify(KNOWLIST_SPEC)
        assert {op.name for op in cls.constructors} == {"CREATE", "APPEND"}
        assert {op.name for op in cls.observers} == {"IS_IN?"}
        assert cls.extensions == ()

    def test_str_rendering(self, queue_spec):
        text = str(classify(queue_spec))
        assert "constructors: NEW, ADD" in text
