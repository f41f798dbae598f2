"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

REPO_SRC = Path(__file__).resolve().parents[1] / "src"

QUEUE_SPEC_TEXT = """
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

INCOMPLETE_SPEC_TEXT = "\n".join(
    line
    for line in QUEUE_SPEC_TEXT.splitlines()
    if not line.strip().startswith("(5)")
)

PROGRAM = """
begin
  declare x: int;
  x := 1;
  ghost := 2;
end
"""


@pytest.fixture()
def queue_file(tmp_path):
    path = tmp_path / "queue.spec"
    path.write_text(QUEUE_SPEC_TEXT)
    return str(path)


@pytest.fixture()
def incomplete_file(tmp_path):
    path = tmp_path / "incomplete.spec"
    path.write_text(INCOMPLETE_SPEC_TEXT)
    return str(path)


@pytest.fixture()
def program_file(tmp_path):
    path = tmp_path / "sample.block"
    path.write_text(PROGRAM)
    return str(path)


class TestCheck:
    def test_complete_spec_exits_zero(self, queue_file, capsys):
        assert main(["check", queue_file]) == 0
        out = capsys.readouterr().out
        assert "sufficiently complete: YES" in out
        assert "consistent" in out

    def test_incomplete_spec_exits_nonzero(self, incomplete_file, capsys):
        assert main(["check", incomplete_file]) == 1
        assert "REMOVE(NEW)" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["check", "/no/such/file.spec"]) == 2
        assert "error" in capsys.readouterr().err

    def test_coverage_flag(self, queue_file, capsys):
        assert main(["check", queue_file, "--coverage"]) == 0
        assert "axiom coverage" in capsys.readouterr().out

    def test_coverage_flags_dead_axiom(self, tmp_path, capsys):
        path = tmp_path / "dead.spec"
        path.write_text(
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
        assert main(["check", str(path), "--coverage"]) == 1
        assert "never fired" in capsys.readouterr().out


class TestShow:
    def test_pretty_prints(self, queue_file, capsys):
        assert main(["show", queue_file]) == 0
        out = capsys.readouterr().out
        assert "Type: Queue [Item]" in out


class TestPrompts:
    def test_complete_spec_has_none(self, queue_file, capsys):
        assert main(["prompts", queue_file]) == 0
        assert "nothing to supply" in capsys.readouterr().out

    def test_incomplete_spec_lists_cases(self, incomplete_file, capsys):
        assert main(["prompts", incomplete_file]) == 1
        assert "REMOVE(NEW)" in capsys.readouterr().out


class TestEval:
    def test_normalises_term(self, queue_file, capsys):
        code = main(
            ["eval", queue_file, "FRONT(ADD(ADD(NEW, 'a'), 'b'))"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "'a'"

    def test_error_value_printed(self, queue_file, capsys):
        assert main(["eval", queue_file, "FRONT(NEW)"]) == 0
        assert capsys.readouterr().out.strip() == "error"

    def test_stats_flag(self, queue_file, capsys):
        main(["eval", queue_file, "REMOVE(ADD(NEW, 'a'))", "--stats"])
        captured = capsys.readouterr()
        assert "step(s)" in captured.err

    def test_bad_term_reports_cleanly(self, queue_file, capsys):
        assert main(["eval", queue_file, "ZAP(1,2)"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("backend", ["codegen"])
    def test_compiled_backends_normalise(self, queue_file, capsys, backend):
        code = main(
            [
                "eval", queue_file, "FRONT(ADD(ADD(NEW, 'a'), 'b'))",
                "--backend", backend, "--stats",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == "'a'"
        assert "rule firing(s)" in captured.err

    def test_workers_evaluate_through_a_shard_pool(self, queue_file, capsys):
        code = main(
            [
                "eval", queue_file, "FRONT(ADD(ADD(NEW, 'a'), 'b'))",
                "FRONT(NEW)", "--workers", "2", "--resilient", "--stats",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.splitlines() == ["'a'", "error"]
        assert "workers shipped" in captured.err

    def test_workers_on_unwireable_rules_say_so(
        self, queue_file, capsys, monkeypatch
    ):
        import repro.parallel
        from repro.parallel import WireError

        def unwireable(*args, **kwargs):
            raise WireError("builtin reference is a lambda")

        monkeypatch.setattr(repro.parallel, "ShardPool", unwireable)
        code = main(
            [
                "eval", queue_file, "FRONT(ADD(ADD(NEW, 'a'), 'b'))",
                "--workers", "2", "--stats",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.strip() == "'a'"
        assert "evaluating in-process" in captured.err
        assert "workers shipped" not in captured.err

    def test_retired_compiled_backend_rejected(self, queue_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", queue_file, "NEW", "--backend", "compiled"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestRun:
    SOURCE = """
    begin
      declare x: int;
      declare i: int;
      while i < 4 do
        x := x + i;
        i := i + 1;
      od;
    end
    """

    def test_vm_engine(self, tmp_path, capsys):
        path = tmp_path / "p.block"
        path.write_text(self.SOURCE)
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "x = 6" in out and "i = 4" in out

    def test_interp_engine(self, tmp_path, capsys):
        path = tmp_path / "p.block"
        path.write_text(self.SOURCE)
        assert main(["run", str(path), "--engine", "interp"]) == 0
        assert "x = 6" in capsys.readouterr().out

    def test_semantic_error_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.block"
        path.write_text("begin ghost := 1; end")
        assert main(["run", str(path)]) == 1
        assert "error" in capsys.readouterr().err


class TestProve:
    PROGRAM = """
    input i: Item
    let q := ADD(NEW, i)
    assert FRONT(q) = i
    """
    WRONG = """
    input i: Item
    input j: Item
    assert FRONT(ADD(ADD(NEW, i), j)) = j
    """

    def test_proves_theorems(self, queue_file, tmp_path, capsys):
        program = tmp_path / "thm.prove"
        program.write_text(self.PROGRAM)
        assert main(["prove", queue_file, str(program)]) == 0
        assert "proved" in capsys.readouterr().out

    def test_wrong_claims_exit_nonzero(self, queue_file, tmp_path, capsys):
        program = tmp_path / "wrong.prove"
        program.write_text(self.WRONG)
        assert main(["prove", queue_file, str(program)]) == 1
        assert "NOT PROVED" in capsys.readouterr().out


def _trace_events(document: dict) -> list[dict]:
    """Every span event of an OTLP trace document, in span order."""
    from repro.obs.otlp import read_otlp_spans

    return [
        event
        for span in read_otlp_spans(document)
        for event in span["events"]
    ]


class TestTrace:
    TERM = "FRONT(ADD(ADD(NEW, 'a'), 'b'))"

    def test_stdout_otlp_with_summary_on_stderr(self, queue_file, capsys):
        from repro.obs.otlp import read_otlp_spans
        from repro.obs.profile import attributes

        assert main(["trace", queue_file, self.TERM]) == 0
        captured = capsys.readouterr()
        document = json.loads(captured.out)
        (span,) = read_otlp_spans(document)
        assert span["name"] == "engine.normalize"
        assert attributes(span)["backend"] == "interpreted"
        steps = [e for e in span["events"] if e["name"] == "step"]
        assert steps and all(
            {"rule", "subject"} <= set(attributes(e)) for e in steps
        )
        assert "normal form: 'a'" in captured.err
        assert "rule firing(s)" in captured.err
        # The per-rule profile table renders on stderr.
        assert "self_s" in captured.err

    def test_out_file_keeps_stdout_clean(self, queue_file, tmp_path, capsys):
        from repro.obs.otlp import read_otlp_file

        out = tmp_path / "trace.otlp.json"
        code = main(
            ["trace", queue_file, self.TERM, "--out", str(out)]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        (document,) = read_otlp_file(str(out))
        assert any(e["name"] == "step" for e in _trace_events(document))

    def test_compiled_backend_emits_aggregated_firings(
        self, queue_file, capsys
    ):
        from repro.obs.profile import attributes

        code = main(
            ["trace", queue_file, self.TERM, "--backend", "codegen"]
        )
        assert code == 0
        events = _trace_events(json.loads(capsys.readouterr().out))
        kinds = {e["name"] for e in events}
        assert "firings" in kinds and "step" not in kinds
        for event in events:
            assert {"rule", "count"} == set(attributes(event))

    def test_sample_zero_suppresses_all_events(self, queue_file, capsys):
        from repro.obs.otlp import read_otlp_spans

        assert main(
            ["trace", queue_file, self.TERM, "--sample", "0.0"]
        ) == 0
        captured = capsys.readouterr()
        assert read_otlp_spans(json.loads(captured.out)) == []
        assert "0 span(s)" in captured.err

    def test_budget_exhaustion_exits_three(self, queue_file, capsys):
        code = main(["trace", queue_file, self.TERM, "--fuel", "1"])
        assert code == 3
        captured = capsys.readouterr()
        events = _trace_events(json.loads(captured.out))
        assert any(e["name"] == "budget_exhausted" for e in events)

    def test_metrics_out_writes_aggregate_snapshot(
        self, queue_file, tmp_path, capsys
    ):
        metrics = tmp_path / "metrics.json"
        code = main(
            ["trace", queue_file, self.TERM, "--metrics-out", str(metrics)]
        )
        assert code == 0
        snapshot = json.loads(metrics.read_text())
        assert snapshot["counters"]["engine.steps"] > 0
        assert "intern.hits" in snapshot["counters"]
        assert snapshot["families"]["engine.rule_firings"]

    @pytest.mark.parametrize(
        "backend", ["interpreted", "codegen"]
    )
    def test_trace_firings_match_metrics_snapshot(
        self, queue_file, tmp_path, backend
    ):
        # The acceptance criterion, end to end and hermetically: in a
        # fresh process, the OTLP trace file's per-rule counts must
        # equal the metrics snapshot's firing family exactly.
        from repro.obs import firing_counts
        from repro.obs.otlp import read_otlp_file, read_otlp_spans

        out = tmp_path / "trace.otlp.json"
        metrics = tmp_path / "metrics.json"
        env = dict(os.environ, PYTHONPATH=str(REPO_SRC))
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "trace", queue_file,
                self.TERM, "--backend", backend,
                "--out", str(out), "--metrics-out", str(metrics),
            ],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        (document,) = read_otlp_file(str(out))
        traced = firing_counts(read_otlp_spans(document))
        snapshot = json.loads(metrics.read_text())
        assert traced == snapshot["families"]["engine.rule_firings"]
        assert sum(traced.values()) > 0

    @pytest.mark.parametrize("backend", ["interpreted", "codegen"])
    def test_profile_reads_back_from_the_out_file_exactly(
        self, queue_file, tmp_path, capsys, monkeypatch, backend
    ):
        # One analysis path: the profile of the live document the CLI
        # built equals, row for row and to the nanosecond, the profile
        # of the file it wrote.
        from repro.obs import otlp, rule_profile

        live = []
        real_to_otlp = otlp.to_otlp

        def capturing(*args, **kwargs):
            live.append(real_to_otlp(*args, **kwargs))
            return live[-1]

        monkeypatch.setattr(otlp, "to_otlp", capturing)
        out = tmp_path / "trace.otlp.json"
        term = "FRONT(REMOVE(ADD(ADD(ADD(NEW, 'a'), 'b'), 'c')))"
        assert main(
            ["trace", queue_file, term, "--backend", backend,
             "--out", str(out)]
        ) == 0
        (document,) = otlp.read_otlp_file(str(out))
        expected = rule_profile(otlp.read_otlp_spans(live[0]))
        assert expected
        assert rule_profile(otlp.read_otlp_spans(document)) == expected


def _late_end(document: dict) -> str:
    """A trace document whose first span ends at a non-numeric time."""
    span = document["resourceSpans"][0]["scopeSpans"][0]["spans"][0]
    span["endTimeUnixNano"] = "later"
    return json.dumps(document)


def _step_without_rule(document: dict) -> str:
    """A trace document whose first ``step`` event names no rule."""
    span = document["resourceSpans"][0]["scopeSpans"][0]["spans"][0]
    step = next(e for e in span["events"] if e["name"] == "step")
    step["attributes"] = [
        attr for attr in step["attributes"] if attr["key"] != "rule"
    ]
    return json.dumps(document)


class TestTraceDiff:
    TERM_A = "FRONT(ADD(ADD(NEW, 'a'), 'b'))"
    TERM_B = "FRONT(ADD(ADD(ADD(NEW, 'a'), 'b'), 'c'))"

    def _trace(self, queue_file, tmp_path, term, name, backend):
        out = tmp_path / name
        code = main(
            [
                "trace", queue_file, term,
                "--backend", backend, "--out", str(out),
            ]
        )
        assert code == 0
        return str(out)

    def test_table_reports_per_rule_deltas(
        self, queue_file, tmp_path, capsys
    ):
        a = self._trace(queue_file, tmp_path, self.TERM_A, "a.otlp.json",
                        "interpreted")
        b = self._trace(queue_file, tmp_path, self.TERM_B, "b.otlp.json",
                        "interpreted")
        capsys.readouterr()
        assert main(["trace-diff", a, b]) == 0
        captured = capsys.readouterr()
        assert "firings_a" in captured.out
        assert "self_delta" in captured.out
        assert "FRONT" in captured.out
        # The longer queue costs one extra FRONT recursion.
        assert "+1" in captured.out

    def test_json_rows_round_trip(self, queue_file, tmp_path, capsys):
        a = self._trace(queue_file, tmp_path, self.TERM_A, "a.otlp.json",
                        "interpreted")
        b = self._trace(queue_file, tmp_path, self.TERM_B, "b.otlp.json",
                        "codegen")
        capsys.readouterr()
        assert main(["trace-diff", a, b, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows and {"rule", "firings_delta", "self_s_delta"} <= set(
            rows[0]
        )

    def test_identical_traces_have_no_firing_deltas(
        self, queue_file, tmp_path, capsys
    ):
        a = self._trace(queue_file, tmp_path, self.TERM_A, "a.otlp.json",
                        "interpreted")
        capsys.readouterr()
        assert main(
            ["trace-diff", a, a, "--fail-on-firing-delta"]
        ) == 0

    def test_firing_delta_fails_when_requested(
        self, queue_file, tmp_path, capsys
    ):
        a = self._trace(queue_file, tmp_path, self.TERM_A, "a.otlp.json",
                        "interpreted")
        b = self._trace(queue_file, tmp_path, self.TERM_B, "b.otlp.json",
                        "interpreted")
        capsys.readouterr()
        assert main(
            ["trace-diff", a, b, "--fail-on-firing-delta"]
        ) == 1

    def test_backend_equivalence_shows_zero_deltas(
        self, queue_file, tmp_path, capsys
    ):
        # The backend-differential invariant through the CLI: the same
        # term traced on the interpreted and codegen backends diffs to
        # all-zero firing deltas.
        a = self._trace(queue_file, tmp_path, self.TERM_A, "a.otlp.json",
                        "interpreted")
        b = self._trace(queue_file, tmp_path, self.TERM_A, "b.otlp.json",
                        "codegen")
        capsys.readouterr()
        assert main(
            ["trace-diff", a, b, "--fail-on-firing-delta"]
        ) == 0

    def test_missing_file_reports_cleanly(self, capsys):
        assert main(
            ["trace-diff", "/no/such/a.otlp.json", "/no/b.otlp.json"]
        ) == 2

    @pytest.mark.parametrize(
        "corrupt, expected",
        [
            (lambda doc: json.dumps(doc) + "\n{not json\n",
             "line 2 is not JSON"),
            (lambda doc: json.dumps([doc]), "not an OTLP document"),
            (_late_end, "not integer nanoseconds"),
            (_step_without_rule, "step event without a string rule"),
        ],
        ids=["line-not-json", "top-level-array", "non-numeric-end",
             "step-without-rule"],
    )
    def test_malformed_file_reports_violations(
        self, queue_file, tmp_path, capsys, corrupt, expected
    ):
        good = self._trace(queue_file, tmp_path, self.TERM_A, "a.otlp.json",
                           "interpreted")
        bad = tmp_path / "bad.otlp.json"
        bad.write_text(corrupt(json.loads(Path(good).read_text())))
        capsys.readouterr()
        assert main(["trace-diff", good, str(bad)]) == 2
        err = capsys.readouterr().err
        assert expected in err and "Traceback" not in err


class TestMetricsOut:
    def test_eval_metrics_out(self, queue_file, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        code = main(
            [
                "eval", queue_file, "FRONT(ADD(NEW, 'a'))",
                "--metrics-out", str(metrics),
            ]
        )
        assert code == 0
        snapshot = json.loads(metrics.read_text())
        assert set(snapshot) == {
            "counters", "gauges", "histograms", "families",
        }

    def test_check_metrics_out(self, queue_file, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        assert main(
            ["check", queue_file, "--metrics-out", str(metrics)]
        ) == 0
        assert json.loads(metrics.read_text())["counters"]


class TestCompile:
    def test_diagnostics_printed_and_exit_one(self, program_file, capsys):
        assert main(["compile", program_file]) == 1
        assert "ghost" in capsys.readouterr().out

    def test_clean_program(self, tmp_path, capsys):
        path = tmp_path / "ok.block"
        path.write_text("begin declare x: int; x := 1; end")
        assert main(["compile", str(path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_spec_backend(self, program_file, capsys):
        assert main(["compile", program_file, "--backend", "spec"]) == 1

    def test_native_backend_unavailable_for_knows(self, program_file, capsys):
        code = main(
            [
                "compile",
                program_file,
                "--dialect",
                "knows",
                "--backend",
                "native",
            ]
        )
        assert code == 2
        assert "not available" in capsys.readouterr().err

    def test_knows_dialect(self, tmp_path, capsys):
        path = tmp_path / "k.block"
        path.write_text(
            "begin declare g: int; begin g := 1; end; end"
        )
        assert main(["compile", str(path), "--dialect", "knows"]) == 1
        assert "knows list" in capsys.readouterr().out
