"""Tests for the axiom-coverage linter."""

import pytest

from repro.spec.parser import parse_specification
from repro.analysis.coverage import check_axiom_coverage


class TestFullCoverage:
    @pytest.mark.parametrize(
        "fixture_name",
        ["queue_spec", "stack_spec", "array_spec", "symboltable_spec"],
    )
    def test_paper_specs_fully_covered(self, fixture_name, request):
        """No equation in the paper's specifications is dead weight."""
        spec = request.getfixturevalue(fixture_name)
        report = check_axiom_coverage(spec, observations=250)
        assert report.fully_covered, str(report)

    def test_every_axiom_reported(self, queue_spec):
        report = check_axiom_coverage(queue_spec)
        assert set(report.firing_counts) == {
            a.label for a in queue_spec.axioms
        }

    def test_counts_positive(self, queue_spec):
        report = check_axiom_coverage(queue_spec, observations=250)
        assert all(count > 0 for count in report.firing_counts.values())


class TestDeadAxiomDetection:
    SHADOWED = """
    type F
    uses Boolean
    operations
      MKF: -> F
      GROW: F -> F
      UP?: F -> Boolean
    vars
      f: F
    axioms
      (general) UP?(f) = true
      (dead) UP?(MKF) = true
    """

    def test_shadowed_axiom_flagged(self):
        spec = parse_specification(self.SHADOWED)
        report = check_axiom_coverage(spec)
        assert report.uncovered == ["dead"]
        assert not report.fully_covered

    def test_report_marks_never_fired(self):
        spec = parse_specification(self.SHADOWED)
        text = str(check_axiom_coverage(spec))
        assert "never fired" in text

    def test_order_dependence_detected(self):
        # Same two axioms, specific case first: both fire.
        reordered = self.SHADOWED.replace(
            "(general) UP?(f) = true\n      (dead) UP?(MKF) = true",
            "(specific) UP?(MKF) = true\n      (general) UP?(f) = true",
        )
        spec = parse_specification(reordered)
        report = check_axiom_coverage(spec)
        assert report.fully_covered, str(report)

    def test_repeated_axiom_flagged(self):
        # The same equation twice: the second copy is dead, not a
        # missing rule.
        repeated = self.SHADOWED.replace("(general) UP?(f)", "(again) UP?(MKF)")
        report = check_axiom_coverage(parse_specification(repeated))
        assert report.uncovered == ["dead"]


class TestDeterminism:
    def test_repeated_runs_same_counts(self, queue_spec):
        first = check_axiom_coverage(queue_spec)
        second = check_axiom_coverage(queue_spec)
        assert first.firing_counts == second.firing_counts
        assert first.complete_to == second.complete_to


class TestUndecided:
    def test_diverging_observation_is_undecided(self):
        spec = parse_specification(
            """
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
        )
        report = check_axiom_coverage(spec, observations=2, fuel=2000)
        # SPIN(MKL) is run; SPIN(WIND(MKL)) runs out of fuel.
        assert (report.observations_run, report.undecided) == (1, 1)
        assert report.complete_to == 1
        assert "1 undecided" in str(report)
