"""Unit tests for the consistency checker."""

import pytest

from repro.spec.parser import parse_specification
from repro.analysis.consistency import Verdict, check_consistency


class TestConsistentSpecs:
    @pytest.mark.parametrize(
        "fixture_name",
        ["queue_spec", "stack_spec", "array_spec", "symboltable_spec"],
    )
    def test_paper_specs_consistent(self, fixture_name, request):
        spec = request.getfixturevalue(fixture_name)
        report = check_consistency(spec)
        assert report.consistent, str(report)

    def test_ground_instances_checked(self, queue_spec):
        # Five per axiom: one for each of the three ground axioms, five
        # for each other, through total size 5.
        report = check_consistency(queue_spec, ground_instances=30)
        assert report.ground_instances_checked == 18
        assert report.ground_complete_to == 5
        assert not report.ground_witnesses
        assert "holds for all 18 instances, complete to size 5" in str(report)


class TestInconsistentSpecs:
    def test_direct_clash_detected(self):
        source = """
        type F
        uses Boolean
        operations
          MKF: -> F
          UP?: F -> Boolean
        vars
          f: F
        axioms
          UP?(MKF) = true
          UP?(MKF) = false
        """
        report = check_consistency(parse_specification(source))
        assert report.verdict is Verdict.INCONSISTENT
        assert report.direct_clashes

    def test_renamed_clash_detected(self):
        source = """
        type F
        uses Boolean
        operations
          MKF: -> F
          GROW: F -> F
          UP?: F -> Boolean
        vars
          f, g: F
        axioms
          UP?(GROW(f)) = true
          UP?(GROW(g)) = false
        """
        report = check_consistency(parse_specification(source))
        assert report.verdict is Verdict.INCONSISTENT

    def test_overlap_contradiction_detected(self):
        # A general axiom and a special case that disagree.
        source = """
        type F
        uses Boolean
        operations
          MKF: -> F
          GROW: F -> F
          UP?: F -> Boolean
        vars
          f: F
        axioms
          UP?(f) = true
          UP?(MKF) = false
        """
        report = check_consistency(parse_specification(source))
        assert report.verdict is Verdict.INCONSISTENT

    def test_witness_explains_failure(self):
        source = """
        type F
        uses Boolean
        operations
          MKF: -> F
          GROW: F -> F
          UP?: F -> Boolean
        vars
          f: F
        axioms
          UP?(f) = true
          UP?(MKF) = false
        """
        report = check_consistency(parse_specification(source))
        text = str(report)
        assert "inconsistent" in text
        # The smallest instance already disagrees.
        (witness,) = report.ground_witnesses
        assert str(witness.instance_lhs) == "UP?(MKF)"
        assert (str(witness.normal_lhs), str(witness.normal_rhs)) == (
            "true",
            "false",
        )


class TestUndecidedInstances:
    SPIN = """
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

    def test_diverging_instances_are_undecided(self):
        """An instance that runs out of fuel is tallied as undecided,
        not as checked, and bounds the completeness claim below it."""
        report = check_consistency(
            parse_specification(self.SPIN), ground_instances=4, fuel=2000
        )
        assert report.ground_instances_checked == 1  # SPIN(MKL) = MKL
        assert report.ground_undecided == 2  # l = MKL, l = WIND(MKL)
        assert report.ground_complete_to == 0
        assert "2 undecided" in str(report)


class TestReportStr:
    def test_consistent_report_mentions_verdict(self, queue_spec):
        text = str(check_consistency(queue_spec))
        assert "consistent" in text
        assert "Queue" in text
