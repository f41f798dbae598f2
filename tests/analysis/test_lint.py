"""Tests for the one-call lint facade."""

import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.report import banner
from repro.spec.parser import parse_specification, parse_specifications
from repro.analysis.lint import lint_specification

SPECS = sorted((Path(__file__).resolve().parents[2] / "specs").glob("*.spec"))

#: The second axiom diverges on every ground instance, so each ground
#: check runs into its fuel budget.
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


class TestCleanSpecs:
    @pytest.mark.parametrize(
        "fixture_name",
        ["queue_spec", "stack_spec", "array_spec", "symboltable_spec"],
    )
    def test_paper_specs_lint_clean(self, fixture_name, request):
        spec = request.getfixturevalue(fixture_name)
        report = lint_specification(spec)
        assert report.clean, str(report)
        assert report.problems() == []

    def test_coverage_optional(self, queue_spec):
        report = lint_specification(queue_spec, with_coverage=False)
        assert report.coverage is None
        assert report.clean


class TestDirtySpecs:
    def test_missing_case_reported(self):
        spec = parse_specification(
            """
            type T
            uses Boolean
            operations
              MKT: -> T
              GROW: T -> T
              SHRINK: T -> T
              FLAG?: T -> Boolean
            vars
              t: T
            axioms
              FLAG?(MKT) = true
              FLAG?(GROW(t)) = false
              SHRINK(GROW(t)) = t
            """
        )
        report = lint_specification(spec)
        assert not report.clean
        assert any("SHRINK(MKT)" in p for p in report.problems())

    def test_dead_axiom_reported(self):
        spec = parse_specification(
            """
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
        )
        report = lint_specification(spec)
        assert not report.clean
        assert any("never fires" in p for p in report.problems())

    def test_shape_problem_reported(self):
        # Non-left-linear axiom.
        spec = parse_specification(
            """
            type P
            uses Boolean
            operations
              MKP: -> P
              TWIN?: P x P -> Boolean
            vars
              p: P
            axioms
              TWIN?(p, p) = true
            """
        )
        report = lint_specification(spec, with_coverage=False)
        assert any("linear" in p for p in report.problems())

    def test_str_verdicts(self, queue_spec):
        assert "CLEAN" in str(lint_specification(queue_spec))


class TestOneComposition:
    @pytest.mark.parametrize("path", SPECS, ids=lambda path: path.name)
    def test_check_prints_lints_reports(self, path, capsys):
        """``repro check --coverage`` prints lint's three reports, and
        exits 1 exactly when lint is not clean."""
        status = main(["check", "--coverage", str(path)])
        printed = capsys.readouterr().out
        expected, clean = [], True
        for spec in parse_specifications(path.read_text()):
            report = lint_specification(spec)
            clean = clean and report.clean
            expected += [
                banner(spec.name),
                str(report.completeness),
                "",
                str(report.consistency),
                "",
                str(report.coverage),
            ]
        assert printed == "\n".join(expected) + "\n"
        assert status == (0 if clean else 1)

    def test_shipped_specs_are_shape_clean(self):
        for path in SPECS:
            for spec in parse_specifications(path.read_text()):
                report = lint_specification(spec, with_coverage=False)
                assert report.shape_problems == [], spec.name


class TestOneBudgetPerCheck:
    def test_diverging_spec_lints_quickly(self):
        """At default arguments each check spends one fuel budget, not
        one per instance: 3.1-3.9 s measured on a 2-vCPU machine,
        against about 290 s when every instance had the whole fuel."""
        spec = parse_specification(SPIN)
        started = time.perf_counter()
        report = lint_specification(spec)
        assert time.perf_counter() - started < 30
        assert [str(s.term) for s in report.completeness.stuck] == [
            "SPIN(WIND(MKL))"
        ]
        assert report.completeness.sampled_undecided > 0
        assert report.consistency.ground_undecided > 0
        assert report.coverage.undecided > 0
        assert "undecided" in str(report.completeness)


class TestSharedAnalysis:
    def test_lint_sets_up_once(self, queue_spec, monkeypatch):
        """lint's three checks share one classification, one enumerator
        and one memoising engine."""
        from repro.analysis import spec_analysis

        built = []
        for name in ("classify", "GroundTermEnumerator", "RewriteEngine"):
            original = getattr(spec_analysis, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                built.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(spec_analysis, name, counted)
        assert lint_specification(queue_spec).clean
        assert sorted(built) == ["GroundTermEnumerator", "RewriteEngine", "classify"]
