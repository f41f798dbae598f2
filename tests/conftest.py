"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.algebra import Sort, make_signature
from repro.adt.queue import QUEUE_SPEC
from repro.adt.stack import STACK_SPEC
from repro.adt.array import ARRAY_SPEC
from repro.adt.symboltable import SYMBOLTABLE_SPEC, symboltable_representation
from repro.rewriting import RewriteEngine

# A longer search for the nightly CI jobs: HYPOTHESIS_PROFILE=nightly.
# Tests that pin their own example counts keep them.
settings.register_profile("nightly", max_examples=2000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def queue_spec():
    return QUEUE_SPEC


@pytest.fixture(scope="session")
def stack_spec():
    return STACK_SPEC


@pytest.fixture(scope="session")
def array_spec():
    return ARRAY_SPEC


@pytest.fixture(scope="session")
def symboltable_spec():
    return SYMBOLTABLE_SPEC


@pytest.fixture()
def queue_engine(queue_spec):
    return RewriteEngine.for_specification(queue_spec)


@pytest.fixture(scope="session")
def representation():
    return symboltable_representation()


@pytest.fixture(scope="session")
def tiny_signature():
    """A small two-sort signature used by the algebra unit tests."""
    return make_signature(
        ["T", "E", "Boolean"],
        {
            "mk": ([], "T"),
            "grow": (["T", "E"], "T"),
            "peek": (["T"], "E"),
            "empty?": (["T"], "Boolean"),
        },
    )
