"""Unit tests for the ground-term generator."""

import pytest

from repro.algebra.sorts import Sort
from repro.testing.termgen import (
    GenerationError,
    GroundTermGenerator,
)
from repro.adt.queue import QUEUE_SPEC


class TestTermGeneration:
    def test_terms_are_ground(self, queue_spec):
        generator = GroundTermGenerator(queue_spec, seed=1)
        for _ in range(20):
            term = generator.term(queue_spec.type_of_interest)
            assert term.is_ground()

    def test_terms_are_well_sorted(self, queue_spec):
        generator = GroundTermGenerator(queue_spec, seed=2)
        for _ in range(20):
            term = generator.term(queue_spec.type_of_interest)
            assert term.sort == queue_spec.type_of_interest

    def test_terms_use_only_constructors(self, queue_spec):
        generator = GroundTermGenerator(queue_spec, seed=3)
        constructor_names = {"NEW", "ADD", "true", "false"}
        for _ in range(20):
            term = generator.term(queue_spec.type_of_interest)
            assert {op.name for op in term.operations()} <= constructor_names

    def test_depth_bounded(self, queue_spec):
        generator = GroundTermGenerator(queue_spec, seed=4, max_depth=3)
        for _ in range(20):
            term = generator.term(queue_spec.type_of_interest)
            assert term.depth() <= 4  # depth bound + literal leaf

    def test_deterministic_given_seed(self, queue_spec):
        first = GroundTermGenerator(queue_spec, seed=7)
        second = GroundTermGenerator(queue_spec, seed=7)
        for _ in range(10):
            assert first.term(queue_spec.type_of_interest) == second.term(
                queue_spec.type_of_interest
            )

    def test_seeds_vary_output(self, queue_spec):
        toi = queue_spec.type_of_interest
        first = [GroundTermGenerator(queue_spec, seed=1).term(toi) for _ in range(5)]
        second = [GroundTermGenerator(queue_spec, seed=2).term(toi) for _ in range(5)]
        assert first != second

    def test_literal_pool_override(self, queue_spec):
        generator = GroundTermGenerator(
            queue_spec, seed=5, pools={"Item": ["only"]}
        )
        from repro.algebra.terms import Lit

        for _ in range(20):
            term = generator.term(Sort("Item"))
            assert isinstance(term, Lit) and term.value == "only"

    def test_uninhabited_sort_raises(self, queue_spec):
        generator = GroundTermGenerator(queue_spec, seed=6)
        with pytest.raises(GenerationError):
            generator.term(Sort("Ghost"))


class TestObservation:
    def test_observation_applies_operation(self, queue_spec):
        generator = GroundTermGenerator(queue_spec, seed=8)
        front = queue_spec.operation("FRONT")
        term = generator.observation(front)
        assert term is not None
        assert term.op == front  # type: ignore[union-attr]

    def test_substitution_covers_variables(self, queue_spec):
        generator = GroundTermGenerator(queue_spec, seed=9)
        axiom = queue_spec.axioms[3]
        sigma = generator.substitution_for(axiom.variables())
        assert set(sigma) == axiom.variables()
        assert sigma.is_ground()


class TestSubstitutionOrder:
    """Ground instances depend on the seed only: not on the order the
    variables come in, which for a set follows the hash seed."""

    def test_variable_order_does_not_matter(self, symboltable_spec):
        for axiom in symboltable_spec.axioms:
            variables = list(axiom.variables())
            forward = GroundTermGenerator(symboltable_spec, seed=5)
            backward = GroundTermGenerator(symboltable_spec, seed=5)
            for _ in range(5):
                assert forward.substitution_for(
                    variables
                ) == backward.substitution_for(variables[::-1])

    def test_instances_agree_across_hash_seeds(self):
        import os
        import pathlib
        import subprocess
        import sys

        script = (
            "from repro.adt.symboltable import SYMBOLTABLE_SPEC as spec\n"
            "from repro.testing.termgen import GroundTermGenerator\n"
            "generator = GroundTermGenerator(spec, seed=1)\n"
            "for axiom in spec.axioms:\n"
            "    for _ in range(3):\n"
            "        sigma = generator.substitution_for(axiom.variables())\n"
            "        print(sigma.apply(axiom.lhs))\n"
        )
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        outputs = []
        for hash_seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src))
            outputs.append(
                subprocess.run(
                    [sys.executable, "-c", script],
                    env=env,
                    capture_output=True,
                    text=True,
                    check=True,
                ).stdout
            )
        assert outputs[0]
        assert outputs[0] == outputs[1] == outputs[2]
