"""Simplification instantiates only the branch a condition selects.

A rule's conditional right-hand side is instantiated one condition at a
time: when the condition decides, nothing of the other branch is built
(checked through the intern table's construction counters); when it
does not, the result is the same conditional as before.  The prover's
guarded unfolding still refuses a recursive definition whose guard does
not decide, and the paper's proofs fire exactly the rules they fired
when both branches were built.
"""

from collections import Counter

import pytest

from repro.adt.stack import POP
from repro.adt.symboltable import symboltable_representation
from repro.algebra import terms
from repro.algebra.signature import Operation
from repro.algebra.sorts import BOOLEAN, Sort
from repro.algebra.terms import Err, Ite, app, lit, var
from repro.rewriting.engine import EngineStats, RewriteEngine
from repro.rewriting.rules import RewriteRule, RuleSet
from repro.spec.prelude import false_term, identifier, true_term
from repro.verify import Mode, not_newstack_lemma, verify_representation
from repro.verify.prover import EquationalProver, ProverEngine
from repro.verify.skolem import fresh_constant, skolemize_pair

T = Sort("T")
E = Sort("E")
MK = Operation("mk", (), T)
GROW = Operation("grow", (T, E), T)
SHRINK = Operation("shrink", (T,), T)
FLAG = Operation("flag?", (T,), BOOLEAN)
PICK = Operation("pick", (T,), T)
DRAIN = Operation("drain", (T,), T)

t = var("t", T)
e = var("e", E)


def _big(template):
    """``template`` under 40 GROWs: far more nodes than a decided
    simplification of the rules below builds."""
    for index in range(40):
        template = app(GROW, template, lit(f"untaken-{index}", E))
    return template


RULES = RuleSet(
    [
        RewriteRule(app(FLAG, app(MK)), true_term()),
        RewriteRule(app(FLAG, app(GROW, t, e)), false_term()),
        RewriteRule(app(SHRINK, app(GROW, t, e)), t),
        # A large then branch and a small else branch.
        RewriteRule(app(PICK, t), Ite(app(FLAG, t), _big(t), app(SHRINK, t))),
        # Recursive over a bare variable (guarded in the prover), with a
        # small then branch and a large else branch.
        RewriteRule(
            app(DRAIN, t), Ite(app(FLAG, t), t, _big(app(DRAIN, app(SHRINK, t))))
        ),
    ]
)


def _constructions(action):
    before = terms.INTERN_HITS[0] + terms.INTERN_MISSES[0]
    result = action()
    return result, terms.INTERN_HITS[0] + terms.INTERN_MISSES[0] - before


@pytest.mark.parametrize("engine_class", [RewriteEngine, ProverEngine])
def test_decided_condition_builds_only_the_taken_branch(engine_class):
    subject = app(GROW, app(MK), lit("kept", E))
    engine = engine_class(RULES)
    result, built = _constructions(lambda: engine.simplify(app(PICK, subject)))
    # FLAG(GROW(..)) is false: the else branch, SHRINK(GROW(..)) -> MK.
    assert result == app(MK)
    # The condition and the else branch: a few nodes.  The then branch
    # alone would be 40.
    assert built < 10


def test_undecided_condition_keeps_the_conditional():
    subject = fresh_constant("s", T)
    result = RewriteEngine(RULES).simplify(app(PICK, subject))
    assert result == Ite(app(FLAG, subject), _big(subject), app(SHRINK, subject))


def test_error_condition_is_an_error_propagation():
    rules = RuleSet(
        [RewriteRule(app(PICK, t), Ite(Err(BOOLEAN), t, app(SHRINK, t)))]
    )
    engine = RewriteEngine(rules)
    assert engine.simplify(app(PICK, app(MK))) == Err(T)
    assert engine.stats.error_propagations == 1


def test_prover_value_mode_tests_the_guard_alone():
    engine = ProverEngine(RULES)
    result, built = _constructions(lambda: engine.normalize(app(DRAIN, app(MK))))
    # FLAG(MK) is true: DRAIN(MK) -> MK; the else branch would be 42 nodes.
    assert result == app(MK)
    assert built < 10


def test_guarded_unfolding_refuses_an_undecided_recursive_guard():
    representation = symboltable_representation()
    retrieve_p = representation.defined["RETRIEVE"].operation
    stack = fresh_constant("s", POP.range)
    term = app(retrieve_p, app(POP, stack), identifier("x"))
    engine = ProverEngine(representation.rules())
    assert engine.simplify(term) == term
    assert engine.stats.rule_firings == 0


#: Verdicts (P = proved, F = failed, per obligation) and total rule
#: firings for the Stack-as-array symbol table.  The verdicts are as
#: recorded when simplification still built both branches of every
#: conditional.  The firings are with one skolem constant per variable
#: for the whole run, so later obligations hit the simplify memo on
#: terms earlier ones simplified.
PAPER_OBLIGATIONS = {
    Mode.UNCONDITIONAL: ("PPPPPFPPF", 45),
    Mode.CONDITIONAL: ("PPPPPPPPP", 41),
    Mode.REACHABLE: ("PPPPPPPPP", 215),
}

#: The firings with fresh constants per obligation, so no obligation
#: reuses another's memo entries.
FRESH_CONSTANT_FIRINGS = {
    Mode.UNCONDITIONAL: 65,
    Mode.CONDITIONAL: 59,
    Mode.REACHABLE: 230,
}


def _verdicts_and_firings(monkeypatch, mode):
    fired = Counter()
    record = EngineStats.record_firing

    def counting(self, rule, subject=None):
        fired[str(rule)] += 1
        return record(self, rule, subject)

    monkeypatch.setattr(EngineStats, "record_firing", counting)
    representation = symboltable_representation()
    lemmas = [not_newstack_lemma(representation)] if mode is Mode.REACHABLE else ()
    report = verify_representation(representation, mode, lemmas=lemmas)
    verdicts = "".join("P" if o.proved else "F" for o in report.outcomes)
    return verdicts, sum(fired.values())


@pytest.mark.parametrize("mode", list(Mode), ids=lambda mode: mode.name)
def test_paper_obligations_fire_the_same_rules(monkeypatch, mode):
    assert _verdicts_and_firings(monkeypatch, mode) == PAPER_OBLIGATIONS[mode]


@pytest.mark.parametrize("mode", list(Mode), ids=lambda mode: mode.name)
def test_shared_constants_only_save_firings(monkeypatch, mode):
    monkeypatch.setattr(
        EquationalProver,
        "skolemize",
        lambda self, lhs, rhs: skolemize_pair(lhs, rhs),
    )
    verdicts, firings = _verdicts_and_firings(monkeypatch, mode)
    assert verdicts == PAPER_OBLIGATIONS[mode][0]
    assert firings == FRESH_CONSTANT_FIRINGS[mode]
    assert PAPER_OBLIGATIONS[mode][1] <= firings
