"""The simplify memo changes cost, never results.

Every ``simplify`` call the prover makes — on the paper's Stack-as-array
symbol-table obligations in every mode, and on seeded client-program
goals — is recorded with the engine's rules, then replayed on a fresh
memo-less engine (``cache_size=0``) over the same rules.  The prover's
engines are reused per fact set, so many recorded results come from a
warm memo; each must equal the memo-less answer.
"""

import random

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
from repro.verify.prover import ProverEngine


@pytest.fixture
def recorded(monkeypatch):
    calls = []
    simplify = ProverEngine.simplify

    def recording(self, term, budget=None):
        hits = self.stats.simplify_hits
        result = simplify(self, term, budget)
        warm = self.stats.simplify_hits > hits
        calls.append((self.rules, self.fuel, term, result, warm))
        return result

    monkeypatch.setattr(ProverEngine, "simplify", recording)
    return calls


def _replay(calls):
    # Some answers came from the memo, so the comparison has teeth.
    assert any(warm for *_, warm in calls)
    engines = {}
    # A copy: the replay's own simplify calls are recorded too.
    for rules, fuel, term, result, _ in tuple(calls):
        engine = engines.get(id(rules))
        if engine is None:
            engine = engines[id(rules)] = ProverEngine(
                rules, fuel=fuel, cache_size=0
            )
        assert engine.simplify(term) == result, term


@pytest.mark.parametrize("mode", list(Mode), ids=lambda mode: mode.name)
def test_stack_as_array_obligations(recorded, mode):
    representation = symboltable_representation()
    lemmas = [not_newstack_lemma(representation)] if mode is Mode.REACHABLE else ()
    verify_representation(representation, mode, lemmas=lemmas)
    _replay(recorded)


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
