"""E4 — the headline: mechanical verification of the symbol-table
representation.

Paper artefact (section 4): "To verify that the implementation is
consistent with Axioms 1 through 8 is quite straightforward.  (It has,
in fact, been done completely mechanically by David Musser ...)  Axiom
9, on the other hand ... is based upon an assumption [Assumption 1]".

Our reproduction: with representation variables ranging over *all*
stack values, the obligations touching ADD' (axioms 6 and 9) fail and
every other axiom is proved mechanically; attaching Assumption 1 — or
restricting to reachable states via generator induction — closes all
nine.  The ground model checker exhibits the unreachable-state
counterexample the assumption excludes.
"""

import pytest

from repro.algebra.terms import app
from repro.verify import (
    Mode,
    model_check,
    not_newstack_lemma,
    obligations_for,
    reachable_states,
    verify_representation,
)

from conftest import report


def test_e4_unconditional_mode(benchmark, representation):
    result = benchmark(
        verify_representation, representation, Mode.UNCONDITIONAL
    )
    assert set(result.failed_labels) == {"6", "9"}
    benchmark.extra_info["failed"] = list(result.failed_labels)


def test_e4_conditional_mode(benchmark, representation):
    result = benchmark(
        verify_representation, representation, Mode.CONDITIONAL
    )
    assert result.all_proved
    benchmark.extra_info["failed"] = []


def test_e4_reachable_mode(benchmark, representation):
    def run():
        return verify_representation(
            representation,
            Mode.REACHABLE,
            lemmas=[not_newstack_lemma(representation)],
        )

    result = benchmark(run)
    assert result.all_proved
    assert result.lemma_outcomes == [("reachable-not-newstack", True)]


def test_e4_per_axiom_table(benchmark, representation):
    def all_modes():
        free = verify_representation(representation, Mode.UNCONDITIONAL)
        conditional = verify_representation(
            representation, Mode.CONDITIONAL
        )
        reachable = verify_representation(
            representation,
            Mode.REACHABLE,
            lemmas=[not_newstack_lemma(representation)],
        )
        return free, conditional, reachable

    free, conditional, reachable = benchmark(all_modes)
    rows = []
    for index in range(9):
        label = str(index + 1)
        rows.append(
            [
                f"axiom {label}",
                _verdict(free, label),
                _verdict(conditional, label),
                _verdict(reachable, label),
            ]
        )
    report(
        "E4: inherent invariants, per mode",
        ["obligation", "all values", "Assumption 1", "reachable"],
        rows,
    )
    # The paper's split: everything except the ADD' obligations is
    # mechanical without help; axiom 9 (and 6, which also applies ADD'
    # to an arbitrary table) needs the environment assumption.
    assert _verdict(free, "9") == "FAILS"
    assert _verdict(conditional, "9") == "proved"
    assert _verdict(reachable, "9") == "proved"


def test_e4_counterexample(benchmark, representation):
    nine = [o for o in obligations_for(representation) if o.label == "9"][0]
    newstack = representation.concrete.operation("NEWSTACK")

    unreachable = benchmark(
        model_check,
        nine,
        representation,
        [app(newstack)],
        max_instances=40,
    )
    assert not unreachable.holds
    states = reachable_states(representation, depth=3, limit=30)
    reachable_report = model_check(
        nine, representation, states[:10], max_instances=120
    )
    assert reachable_report.holds
    report(
        "E4: axiom 9 model check",
        ["universe", "instances", "verdict"],
        [
            [
                "unreachable NEWSTACK",
                unreachable.instances_checked,
                "FAILS (error != attrs)",
            ],
            [
                "reachable states",
                reachable_report.instances_checked,
                "holds",
            ],
        ],
    )


def test_e4_exhaustive_vs_prefix_modelcheck(benchmark, representation):
    """DESIGN.md ablation: model checking every reachable state to depth
    3 vs only the first six states generated.  Both must agree on the
    reachable-state verdict; the full pass costs more but is the one
    that *guarantees* coverage up to its depth."""
    import time

    nine = [o for o in obligations_for(representation) if o.label == "9"][0]
    states = reachable_states(representation, depth=3, limit=60)

    def measure():
        start = time.perf_counter()
        exhaustive = model_check(
            nine, representation, states, max_instances=400
        )
        exhaustive_time = time.perf_counter() - start
        sample = states[:6]
        start = time.perf_counter()
        sampled = model_check(
            nine, representation, sample, max_instances=80
        )
        sampled_time = time.perf_counter() - start
        return exhaustive, sampled, exhaustive_time, sampled_time

    exhaustive, sampled, exhaustive_time, sampled_time = benchmark(measure)
    assert exhaustive.holds and sampled.holds
    report(
        "E4 ablation: exhaustive vs prefix model check (axiom 9)",
        ["strategy", "instances", "verdict", "relative cost"],
        [
            [
                "exhaustive (depth 3)",
                exhaustive.instances_checked,
                "holds",
                f"{exhaustive_time / max(sampled_time, 1e-9):.1f}x",
            ],
            ["first 6 states", sampled.instances_checked, "holds", "1x"],
        ],
    )


def test_e4_queue_list_contrast(benchmark):
    """The Queue-over-lists representation needs no assumption at all —
    the contrast that locates the symbol table's conditional
    correctness in its unreachable states, not in the method."""
    from repro.adt.queue_listrep import queue_list_representation
    from repro.verify import verify_representation

    rep = queue_list_representation()
    result = benchmark(verify_representation, rep, Mode.UNCONDITIONAL)
    assert result.all_proved, str(result)


def _verdict(result, label: str) -> str:
    outcome = [
        o for o in result.outcomes if o.obligation.label == label
    ][0]
    return "proved" if outcome.proved else "FAILS"
