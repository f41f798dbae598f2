"""E1 — section 3's Queue specification checks out mechanically.

Paper artefact: axioms 1-6 "comprise just such a definition" (exactly
FIFO); the sufficient-completeness procedure "can be used to formally
prove the sufficient-completeness of this specification".  We regenerate
the verdicts and time the two analyses.
"""

import pytest

from repro.adt.queue import QUEUE_SPEC
from repro.analysis import (
    check_consistency,
    check_sufficient_completeness,
    classify,
)

from conftest import report


def test_e1_sufficient_completeness(benchmark):
    result = benchmark(check_sufficient_completeness, QUEUE_SPEC)
    assert result.sufficiently_complete
    assert result.unambiguous
    benchmark.extra_info["missing_cases"] = len(result.missing)
    benchmark.extra_info["observations_sampled"] = result.sampled_observations
    benchmark.extra_info["observations_complete_to"] = result.sampled_complete_to


def test_e1_consistency(benchmark):
    result = benchmark(check_consistency, QUEUE_SPEC)
    assert result.consistent
    benchmark.extra_info["ground_instances"] = result.ground_instances_checked
    benchmark.extra_info["ground_complete_to"] = result.ground_complete_to


def test_e1_verdict_table(benchmark):
    cls = benchmark(classify, QUEUE_SPEC)
    completeness = check_sufficient_completeness(QUEUE_SPEC)
    consistency = check_consistency(QUEUE_SPEC)
    rows = [
        ["constructors", ", ".join(op.name for op in cls.constructors)],
        ["extensions", ", ".join(op.name for op in cls.extensions)],
        ["observers", ", ".join(op.name for op in cls.observers)],
        ["sufficiently complete", completeness.sufficiently_complete],
        ["consistent", consistency.consistent],
        ["axioms", len(QUEUE_SPEC.axioms)],
    ]
    report("E1: Queue (axioms 1-6)", ["item", "result"], rows)
    assert {op.name for op in cls.constructors} == {"NEW", "ADD"}
    assert completeness.sufficiently_complete and consistency.consistent
