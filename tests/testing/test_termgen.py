"""Unit tests for the ground-term enumerator."""

import itertools

import pytest

from repro.algebra.sorts import Sort
from repro.algebra.terms import Var
from repro.spec.parser import parse_specification
from repro.testing.termgen import (
    GenerationError,
    GroundTermEnumerator,
    hypothesis,
    prefix,
    variables_in_order,
)


def first(iterable, count):
    return list(itertools.islice(iterable, count))


class TestTermGeneration:
    def test_terms_are_ground(self, queue_spec):
        enumerator = GroundTermEnumerator(queue_spec)
        for term in first(enumerator.terms(queue_spec.type_of_interest), 20):
            assert term.is_ground()

    def test_terms_are_well_sorted(self, queue_spec):
        enumerator = GroundTermEnumerator(queue_spec)
        for term in first(enumerator.terms(queue_spec.type_of_interest), 20):
            assert term.sort == queue_spec.type_of_interest

    def test_terms_use_only_constructors(self, queue_spec):
        enumerator = GroundTermEnumerator(queue_spec)
        constructor_names = {"NEW", "ADD", "true", "false"}
        for term in first(enumerator.terms(queue_spec.type_of_interest), 20):
            assert {op.name for op in term.operations()} <= constructor_names

    def test_depth_bounded(self, queue_spec):
        """Smallest first: sizes never decrease, so a prefix bounds the
        depth of everything in it."""
        enumerator = GroundTermEnumerator(queue_spec)
        terms = first(enumerator.terms(queue_spec.type_of_interest), 20)
        sizes = [term.size() for term in terms]
        assert sizes == sorted(sizes)
        assert all(term.depth() <= sizes[-1] for term in terms)

    def test_uninhabited_sort_raises(self, queue_spec):
        enumerator = GroundTermEnumerator(queue_spec)
        with pytest.raises(GenerationError):
            enumerator.terms(Sort("Ghost"))

    def test_smallest_queues_up_to_renaming(self, queue_spec):
        """Item is never inspected by the Queue axioms, so queues of two
        items come in two classes: equal items and distinct ones."""
        enumerator = GroundTermEnumerator(queue_spec)
        terms = first(enumerator.terms(queue_spec.type_of_interest), 4)
        assert [str(t) for t in terms] == [
            "NEW",
            "ADD(NEW, 'a')",
            "ADD(ADD(NEW, 'a'), 'a')",
            "ADD(ADD(NEW, 'a'), 'b')",
        ]

    def test_shared_subterms_built_once(self, queue_spec):
        enumerator = GroundTermEnumerator(queue_spec)
        terms = first(enumerator.terms(queue_spec.type_of_interest), 4)
        assert terms[2].args[0] is terms[1]
        assert terms[3].args[0] is terms[1]

    def test_inspected_literal_sort_keeps_its_pool(self):
        """A builtin other than ISSAME? reads literal values, so HASH's
        Identifier argument is not taken up to renaming."""
        spec = parse_specification(
            """
            type Bucket
            uses Boolean, Identifier, Nat
            operations
              MKB: Identifier -> Bucket
              WHERE: Bucket -> Nat
            vars
              id: Identifier
            axioms
              WHERE(MKB(id)) = HASH(id)
            """
        )
        enumerator = GroundTermEnumerator(spec)
        identifier = Sort("Identifier")
        assert not enumerator.renamable(identifier)
        buckets = first(enumerator.terms(spec.type_of_interest), 10)
        assert [str(b) for b in buckets] == [
            "MKB('x')", "MKB('y')", "MKB('z')", "MKB('tmp')", "MKB('count')",
        ]

    def test_recursive_only_sort_is_uninhabited(self):
        spec = parse_specification(
            """
            type Loop
            uses Boolean
            operations
              AGAIN: Loop -> Loop
              DONE?: Loop -> Boolean
            vars
              l: Loop
            axioms
              DONE?(AGAIN(l)) = false
            """
        )
        enumerator = GroundTermEnumerator(spec)
        with pytest.raises(GenerationError):
            enumerator.terms(spec.type_of_interest)
        axiom = spec.axioms[0]
        assert first(enumerator.substitutions(axiom.lhs, axiom.rhs), 3) == []


class TestObservation:
    def test_observation_applies_operation(self, queue_spec):
        enumerator = GroundTermEnumerator(queue_spec)
        front = queue_spec.operation("FRONT")
        size, term = next(enumerator.observations(front))
        assert term.op == front
        assert (size, str(term)) == (1, "FRONT(NEW)")

    def test_substitution_covers_variables(self, queue_spec):
        enumerator = GroundTermEnumerator(queue_spec)
        axiom = queue_spec.axioms[3]
        for _, sigma in first(enumerator.substitutions(axiom.lhs, axiom.rhs), 5):
            assert set(sigma) == axiom.variables()
            assert sigma.is_ground()


class TestPrefix:
    def test_complete_to_is_the_last_finished_size(self, queue_spec):
        enumerator = GroundTermEnumerator(queue_spec)
        toi = queue_spec.type_of_interest
        # Sizes 1, 3, 5, 5, 7 x 5: three items fall into Bell(3) = 5 classes.
        taken, complete_to = prefix(enumerator.tuples((toi,)), 4)
        assert [size for size, _ in taken] == [1, 3, 5, 5]
        assert complete_to == 6
        taken, complete_to = prefix(enumerator.tuples((toi,)), 3)
        assert complete_to == 4

    def test_exhausted_enumeration_is_unbounded(self, symboltable_spec):
        """An axiom over one identifier has one instance up to renaming."""
        enumerator = GroundTermEnumerator(symboltable_spec)
        axiom = symboltable_spec.axioms[3]  # IS_INBLOCK?(INIT, id) = false
        taken, complete_to = prefix(
            enumerator.substitutions(axiom.lhs, axiom.rhs), 10
        )
        assert len(taken) == 1 and complete_to is None
        assert hypothesis(1, complete_to) == "1 instance, exhaustive"

    def test_identifier_pairs_up_to_renaming(self, symboltable_spec):
        enumerator = GroundTermEnumerator(symboltable_spec)
        identifier = Sort("Identifier")
        pairs = [
            tuple(t.value for t in terms)
            for _, terms in enumerator.tuples((identifier, identifier))
        ]
        assert pairs == [("x", "x"), ("x", "y")]


class TestSubstitutionOrder:
    """Ground instances depend on where an axiom's variables occur: not
    on their names, nor on the order a set of them iterates in, which
    follows the hash seed."""

    def test_variable_order_does_not_matter(self, symboltable_spec):
        enumerator = GroundTermEnumerator(symboltable_spec)
        for axiom in symboltable_spec.axioms:
            renamed = {
                v: Var(f"renamed_{v.name}", v.sort) for v in axiom.variables()
            }
            lhs, rhs = (_rename(side, renamed) for side in (axiom.lhs, axiom.rhs))
            original = first(enumerator.substitutions(axiom.lhs, axiom.rhs), 5)
            moved = first(enumerator.substitutions(lhs, rhs), 5)
            assert [sigma.apply(axiom.lhs) for _, sigma in original] == [
                sigma.apply(lhs) for _, sigma in moved
            ]
            assert variables_in_order(lhs, rhs) == [
                renamed[v] for v in variables_in_order(axiom.lhs, axiom.rhs)
            ]

    def test_instances_agree_across_hash_seeds(self):
        """``repro check --coverage`` and ``lint_specification`` print
        the same bytes for every shipped spec under any hash seed."""
        import os
        import pathlib
        import subprocess
        import sys

        root = pathlib.Path(__file__).resolve().parents[2]
        specs = sorted(str(path) for path in (root / "specs").glob("*.spec"))
        script = (
            "import sys\n"
            "from repro.cli import main\n"
            "from repro.analysis import lint_specification\n"
            "from repro.spec.parser import parse_specifications\n"
            "for path in sys.argv[1:]:\n"
            "    main(['check', '--coverage', path])\n"
            "    for spec in parse_specifications(open(path).read()):\n"
            "        print(lint_specification(spec))\n"
        )
        outputs = []
        for hash_seed in ("1", "2", "3"):
            env = dict(
                os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(root / "src")
            )
            outputs.append(
                subprocess.run(
                    [sys.executable, "-c", script, *specs],
                    env=env,
                    capture_output=True,
                    check=True,
                ).stdout
            )
        assert b"complete to size" in outputs[0]
        assert outputs[0] == outputs[1] == outputs[2]


def _rename(term, mapping):
    if isinstance(term, Var):
        return mapping[term]
    return term.with_children([_rename(c, mapping) for c in term.children()])
