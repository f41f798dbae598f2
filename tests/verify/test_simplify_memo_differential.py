"""The simplify memo changes cost, never results.

Every ``simplify`` call the prover makes — on the paper's Stack-as-array
symbol-table obligations in every mode, and on seeded client-program
goals — is recorded with the engine's rules, then replayed on a fresh
memo-less engine (``cache_size=0``) over the same rules.  The prover's
engines are reused per fact set, so many recorded results come from a
warm memo; each must equal the memo-less answer.

The same runs are also repeated with one fresh prover and fresh skolem
constants per goal, so that no goal meets another's terms or engines:
every verdict, and every transcript up to the names of the constants,
must equal the shared run's.
"""

import random
import re

import pytest

from repro.adt.queue import QUEUE_SPEC
from repro.adt.symboltable import SYMBOLTABLE_SPEC, symboltable_representation
from repro.verify import (
    Mode,
    not_newstack_lemma,
    parse_client_program,
    verify_client,
    verify_representation,
)
from repro.verify.prover import EquationalProver, ProverEngine
from repro.verify.skolem import skolemize_pair


@pytest.fixture
def recorded(monkeypatch):
    calls = []
    simplify = ProverEngine.simplify

    def recording(self, term, budget=None):
        hits = self.stats.simplify_hits
        result = simplify(self, term, budget)
        warm = self.stats.simplify_hits > hits
        calls.append((self.rules, self.budget, term, result, warm))
        return result

    monkeypatch.setattr(ProverEngine, "simplify", recording)
    return calls


def _replay(calls):
    # Some answers came from the memo, so the comparison has teeth.
    assert any(warm for *_, warm in calls)
    engines = {}
    # A copy: the replay's own simplify calls are recorded too.
    for rules, budget, term, result, _ in tuple(calls):
        engine = engines.get(id(rules))
        if engine is None:
            engine = engines[id(rules)] = ProverEngine(
                rules, budget=budget, cache_size=0
            )
        assert engine.simplify(term) == result, term


def _fresh_per_goal(monkeypatch):
    """Prove every goal on a new prover with new constants, as if each
    were the only goal."""
    prove = EquationalProver.prove

    def fresh_prove(self, lhs, rhs, extra_rules=(), facts=()):
        alone = EquationalProver(
            self.rules,
            self.constructors,
            self.max_fact_splits,
            self.max_constructor_splits,
            self.budget.fuel,
        )
        return prove(alone, lhs, rhs, extra_rules, facts)

    monkeypatch.setattr(EquationalProver, "prove", fresh_prove)
    monkeypatch.setattr(
        EquationalProver,
        "skolemize",
        lambda self, lhs, rhs: skolemize_pair(lhs, rhs),
    )


def _anonymous(proof) -> str:
    """A proof's text with the skolem constants' serial numbers
    dropped (``s$12`` becomes ``s$``)."""
    return re.sub(r"\$\d+", "$", str(proof))


def _representation_run(mode):
    representation = symboltable_representation()
    lemmas = [not_newstack_lemma(representation)] if mode is Mode.REACHABLE else ()
    report = verify_representation(representation, mode, lemmas=lemmas)
    return [(o.proved, _anonymous(o.detail)) for o in report.outcomes]


@pytest.mark.parametrize("mode", list(Mode), ids=lambda mode: mode.name)
def test_stack_as_array_obligations(recorded, mode):
    representation = symboltable_representation()
    lemmas = [not_newstack_lemma(representation)] if mode is Mode.REACHABLE else ()
    verify_representation(representation, mode, lemmas=lemmas)
    _replay(recorded)


@pytest.mark.parametrize("mode", list(Mode), ids=lambda mode: mode.name)
def test_stack_as_array_verdicts_with_fresh_constants(monkeypatch, mode):
    shared = _representation_run(mode)
    _fresh_per_goal(monkeypatch)
    assert _representation_run(mode) == shared


def _symboltable_program(rng: random.Random) -> str:
    lines = [
        "input s: Symboltable",
        "input a: Identifier",
        "input b: Identifier",
        "input v: Attributelist",
        "input w: Attributelist",
    ]
    table = "s"
    for index in range(rng.randint(2, 6)):
        step = rng.choice(["enter", "add", "add", "leave"])
        if step == "enter":
            table = f"ENTERBLOCK({table})"
        elif step == "leave":
            table = f"LEAVEBLOCK({table})"
        else:
            table = f"ADD({table}, {rng.choice('ab')}, {rng.choice('vw')})"
        lines.append(f"let t{index} := {table}")
        table = f"t{index}"
        observer = rng.choice(["RETRIEVE", "IS_INBLOCK?"])
        ident = rng.choice("ab")
        if observer == "RETRIEVE":
            lines.append(f"assert RETRIEVE({table}, {ident}) = {rng.choice('vw')}")
        else:
            value = rng.choice(["true", "false"])
            lines.append(f"assert IS_INBLOCK?({table}, {ident}) = {value}")
    return "\n".join(lines)


def _queue_program(rng: random.Random) -> str:
    lines = ["input q: Queue", "input i: Item", "input j: Item"]
    queue = "q"
    for index in range(rng.randint(2, 6)):
        if rng.random() < 0.7:
            queue = f"ADD({queue}, {rng.choice('ij')})"
        else:
            queue = f"REMOVE({queue})"
        lines.append(f"let r{index} := {queue}")
        queue = f"r{index}"
        if rng.random() < 0.5:
            lines.append(f"assert FRONT({queue}) = {rng.choice('ij')}")
        else:
            lines.append(f"assert IS_EMPTY?({queue}) = false")
    return "\n".join(lines)


@pytest.mark.parametrize("seed", range(6))
def test_seeded_client_goals(recorded, seed):
    rng = random.Random(seed)
    for spec, generate in (
        (SYMBOLTABLE_SPEC, _symboltable_program),
        (QUEUE_SPEC, _queue_program),
    ):
        verify_client(parse_client_program(generate(rng), spec))
    _replay(recorded)


def _client_run(seed):
    rng = random.Random(seed)
    outcomes = []
    for spec, generate in (
        (SYMBOLTABLE_SPEC, _symboltable_program),
        (QUEUE_SPEC, _queue_program),
    ):
        report = verify_client(parse_client_program(generate(rng), spec))
        outcomes.extend(
            (result.proved, _anonymous(result)) for _, result in report.outcomes
        )
    return outcomes


@pytest.mark.parametrize("seed", range(6))
def test_seeded_client_verdicts_with_fresh_constants(monkeypatch, seed):
    shared = _client_run(seed)
    # Both outcomes occur, so the comparison has teeth.
    assert {proved for proved, _ in shared} == {True, False}
    _fresh_per_goal(monkeypatch)
    assert _client_run(seed) == shared
