"""Unit tests for the sufficient-completeness checker."""

import pytest

from repro.spec.parser import parse_specification
from repro.analysis.classify import classify
from repro.analysis.sufficient_completeness import (
    case_patterns,
    check_sufficient_completeness,
)

COMPLETE_QUEUE = """
type Queue [Item]
uses Boolean, Item
operations
  NEW: -> Queue
  ADD: Queue x Item -> Queue
  FRONT: Queue -> Item
  REMOVE: Queue -> Queue
  IS_EMPTY?: Queue -> Boolean
vars
  q: Queue
  i: Item
axioms
  (1) IS_EMPTY?(NEW) = true
  (2) IS_EMPTY?(ADD(q, i)) = false
  (3) FRONT(NEW) = error
  (4) FRONT(ADD(q, i)) = if IS_EMPTY?(q) then i else FRONT(q)
  (5) REMOVE(NEW) = error
  (6) REMOVE(ADD(q, i)) = if IS_EMPTY?(q) then NEW else ADD(REMOVE(q), i)
"""


def drop_axioms(source: str, labels: tuple[str, ...]) -> str:
    lines = [
        line
        for line in source.splitlines()
        if not any(line.strip().startswith(f"({label})") for label in labels)
    ]
    return "\n".join(lines)


class TestCasePatterns:
    def test_remove_has_two_cases(self, queue_spec):
        cls = classify(queue_spec)
        patterns = case_patterns(queue_spec.operation("REMOVE"), cls)
        rendered = {str(p) for p in patterns}
        assert rendered == {"REMOVE(NEW)", "REMOVE(ADD(w0_0, w0_1))"}

    def test_two_toi_arguments_cross_product(self):
        source = """
        type P
        uses Boolean
        operations
          MKP: -> P
          STEP: P -> P
          JOIN?: P x P -> Boolean
        vars
          p, q: P
        axioms
          JOIN?(MKP, MKP) = true
          JOIN?(MKP, STEP(p)) = false
          JOIN?(STEP(p), MKP) = false
          JOIN?(STEP(p), STEP(q)) = JOIN?(p, q)
        """
        spec = parse_specification(source)
        cls = classify(spec)
        patterns = case_patterns(spec.operation("JOIN?"), cls)
        assert len(patterns) == 4  # 2 constructors ^ 2 positions

    def test_operation_without_toi_arguments_single_case(self, array_spec):
        cls = classify(array_spec)
        # READ's TOI argument is position 0 only; Identifier stays a var.
        patterns = case_patterns(array_spec.operation("READ"), cls)
        assert len(patterns) == 2  # EMPTY / ASSIGN


class TestCompleteSpecs:
    @pytest.mark.parametrize(
        "fixture_name",
        ["queue_spec", "stack_spec", "array_spec", "symboltable_spec"],
    )
    def test_paper_specs_sufficiently_complete(self, fixture_name, request):
        spec = request.getfixturevalue(fixture_name)
        report = check_sufficient_completeness(spec)
        assert report.sufficiently_complete, str(report)
        assert report.unambiguous

    def test_report_samples_observations(self, queue_spec):
        # Ten per observer: the smallest queues up to renaming of items.
        report = check_sufficient_completeness(queue_spec, sample_terms=30)
        assert report.sampled_observations == 30
        assert report.sampled_complete_to == 8
        assert not report.stuck
        assert "30 instances, complete to size 8" in str(report)

    def test_zero_sample_terms_samples_nothing(self, queue_spec, monkeypatch):
        # sample_terms=0 is how the heuristics skip sampling: no engine
        # is built and no observation is evaluated.
        from repro.rewriting.engine import RewriteEngine

        def no_engine(*args, **kwargs):
            raise AssertionError("sample_terms=0 built an engine")

        monkeypatch.setattr(RewriteEngine, "__init__", no_engine)
        report = check_sufficient_completeness(queue_spec, sample_terms=0)
        assert report.sufficiently_complete
        assert report.sampled_observations == 0
        assert "0 instances, complete to size 0" in str(report)


class TestIncompleteSpecs:
    def test_missing_boundary_case_detected(self):
        spec = parse_specification(drop_axioms(COMPLETE_QUEUE, ("5",)))
        report = check_sufficient_completeness(spec)
        assert not report.sufficiently_complete
        assert [str(m.pattern) for m in report.missing] == ["REMOVE(NEW)"]

    def test_missing_recursive_case_detected(self):
        spec = parse_specification(drop_axioms(COMPLETE_QUEUE, ("4",)))
        report = check_sufficient_completeness(spec)
        missing = {str(m.pattern) for m in report.missing}
        assert missing == {"FRONT(ADD(w0_0, w0_1))"}

    def test_multiple_missing_cases(self):
        spec = parse_specification(drop_axioms(COMPLETE_QUEUE, ("3", "5")))
        report = check_sufficient_completeness(spec)
        assert len(report.missing) == 2

    def test_whole_operation_uncovered(self):
        spec = parse_specification(
            drop_axioms(COMPLETE_QUEUE, ("1", "2"))
        )
        report = check_sufficient_completeness(spec)
        heads = {m.operation.name for m in report.missing}
        assert heads == {"IS_EMPTY?"}

    def test_dropping_axioms_changes_classification(self):
        # Without axioms 5 and 6, REMOVE heads no axiom, so it is taken
        # for a constructor — and the case grids of FRONT/IS_EMPTY? grow.
        spec = parse_specification(drop_axioms(COMPLETE_QUEUE, ("5", "6")))
        cls = classify(spec)
        assert "REMOVE" in {op.name for op in cls.constructors}
        report = check_sufficient_completeness(spec)
        assert not report.sufficiently_complete


class TestOverlap:
    def test_overlapping_axioms_reported(self):
        source = COMPLETE_QUEUE + "  (7) IS_EMPTY?(q) = false\n"
        spec = parse_specification(source)
        report = check_sufficient_completeness(spec)
        assert report.overlapping
        assert not report.unambiguous


class TestNonTermination:
    def test_growing_axiom_flagged(self):
        source = """
        type L
        uses Boolean
        operations
          MKL: -> L
          WIND: L -> L
          SPIN: L -> L
        vars
          l: L
        axioms
          SPIN(MKL) = MKL
          SPIN(WIND(l)) = SPIN(SPIN(WIND(l)))
        """
        spec = parse_specification(source)
        report = check_sufficient_completeness(spec, sample_terms=0)
        assert report.non_decreasing
        assert not report.sufficiently_complete

    def test_smallest_stuck_observation_reported(self):
        source = """
        type L
        uses Boolean
        operations
          MKL: -> L
          WIND: L -> L
          SPIN: L -> L
        vars
          l: L
        axioms
          SPIN(MKL) = MKL
          SPIN(WIND(l)) = SPIN(SPIN(WIND(l)))
        """
        spec = parse_specification(source)
        report = check_sufficient_completeness(spec, sample_terms=2, fuel=2000)
        assert [str(s.term) for s in report.stuck] == ["SPIN(WIND(MKL))"]
