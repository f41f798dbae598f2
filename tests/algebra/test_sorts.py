"""Unit tests for sorts."""

import pytest

from repro.algebra.sorts import BOOLEAN, NAT, Sort, SortError, check_known


class TestSortBasics:
    def test_equal_by_name(self):
        assert Sort("Queue") == Sort("Queue")

    def test_distinct_names_unequal(self):
        assert Sort("Queue") != Sort("Stack")

    def test_hashable(self):
        assert len({Sort("A"), Sort("A"), Sort("B")}) == 2

    def test_str_plain(self):
        assert str(Sort("Queue")) == "Queue"

    def test_ordering_by_name(self):
        assert Sort("A") < Sort("B")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Sort("")

    def test_invalid_characters_rejected(self):
        with pytest.raises(ValueError):
            Sort("Queue Stack")

    def test_dotted_names_allowed(self):
        assert str(Sort("pkg.Queue")) == "pkg.Queue"

    def test_predefined_boolean_and_nat(self):
        assert str(BOOLEAN) == "Boolean"
        assert str(NAT) == "Nat"


class TestParameterisedSorts:
    def test_str_with_parameters(self):
        queue_of_items = Sort("Queue", (Sort("Item"),))
        assert str(queue_of_items) == "Queue[Item]"

    def test_parameters_part_of_identity(self):
        of_items = Sort("Queue", (Sort("Item"),))
        of_jobs = Sort("Queue", (Sort("Job"),))
        assert of_items != of_jobs

    def test_instantiate_replaces_parameter(self):
        item = Sort("Item")
        queue = Sort("Queue", (item,))
        result = queue.instantiate({item: Sort("Job")})
        assert result == Sort("Queue", (Sort("Job"),))

    def test_instantiate_direct_hit(self):
        item = Sort("Item")
        assert item.instantiate({item: Sort("Job")}) == Sort("Job")

    def test_instantiate_no_parameters_is_identity(self):
        queue = Sort("Queue")
        assert queue.instantiate({Sort("Item"): Sort("Job")}) is queue

    def test_nested_instantiation(self):
        item = Sort("Item")
        inner = Sort("List", (item,))
        outer = Sort("Queue", (inner,))
        result = outer.instantiate({item: Sort("Job")})
        assert str(result) == "Queue[List[Job]]"


class TestCheckKnown:
    def test_known_sort_passes(self):
        check_known(Sort("A"), [Sort("A"), Sort("B")], "test")

    def test_unknown_sort_raises_with_context(self):
        with pytest.raises(SortError, match="test-context"):
            check_known(Sort("C"), [Sort("A")], "test-context")

    def test_error_lists_known_sorts(self):
        with pytest.raises(SortError, match="A"):
            check_known(Sort("C"), [Sort("A")], "ctx")


def test_cached_hashes_survive_pickling_across_hash_seeds():
    """Sorts and operations cache their hash, which depends on the
    process's string-hash seed: a pickle must carry the fields, not the
    hash, or the copy would miss every dict keyed by the original."""
    import os
    import pathlib
    import subprocess
    import sys

    build = (
        "from repro.algebra.signature import Operation\n"
        "from repro.algebra.sorts import Sort\n"
        "queue = Sort('Queue', (Sort('Item'),))\n"
        "objects = [queue, Operation('ADD', (queue, Sort('Item')), queue)]\n"
    )
    dump = build + (
        "import pickle, sys\n"
        "sys.stdout.buffer.write(pickle.dumps(objects))\n"
    )
    load = build + (
        "import pickle, sys\n"
        "loaded = pickle.loads(sys.stdin.buffer.read())\n"
        "assert loaded == objects\n"
        "assert [hash(o) for o in loaded] == [hash(o) for o in objects]\n"
        "print('ok')\n"
    )
    src = str(pathlib.Path(__file__).resolve().parents[2] / "src")

    def run(script, seed, stdin=b""):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        return subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            input=stdin,
            capture_output=True,
            check=True,
        ).stdout

    assert run(load, "2", run(dump, "1")).strip() == b"ok"
