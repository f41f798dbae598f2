"""The verify workload: library calls in this process, one thread.

Each op is one job from :func:`inputs.verify_job`: parse a spec from
DSL text, then either analyse a single-axiom deletion, verify a client
program, or verify the symbol-table representation.  Every verdict is
checked against the answer the job was generated with.
"""

from __future__ import annotations

from time import perf_counter

import inputs
from speed import INTERVAL_S


class VerifyRunner:
    def __init__(self, seed: int) -> None:
        import repro.analysis
        import repro.spec.parser
        import repro.verify
        from repro.adt.symboltable import symboltable_representation

        self.seed = seed
        self.parser = repro.spec.parser
        self.analysis = repro.analysis
        self.verify = repro.verify
        self.blocks = inputs.spec_blocks()
        self.deletion_jobs = inputs.deletions(self.blocks)
        self.representation = symboltable_representation()
        self.lemmas = [repro.verify.not_newstack_lemma(self.representation)]
        self.problems: list[str] = []
        self.assertions = 0
        self.undecided = 0

    def run(self, seconds: float, first_index: int, speed=None) -> dict:
        """Run jobs for ``seconds``.  With ``speed``, sample the kernel
        between jobs every ``INTERVAL_S``; that time is left out of
        ``elapsed``."""
        records = []
        index = first_index
        start = perf_counter()
        stop_at, next_sample = start + seconds, start
        while perf_counter() < stop_at:
            if speed is not None and perf_counter() >= next_sample:
                speed.sample()
                next_sample += INTERVAL_S
            job = inputs.verify_job(self.seed, index, self.deletion_jobs)
            began = perf_counter()
            verdict = self.job(index, job)
            ended = perf_counter()
            ok = self.check(job, verdict)
            records.append((began, ended, None, not ok, job["kind"]))
            index += 1
        end = perf_counter()
        elapsed = end - start - (speed.paused if speed else 0.0)
        return {"records": records, "elapsed": elapsed, "start": start,
                "end": end, "speed": speed}

    def job(self, index: int, job: dict):
        """One op: the library calls only; the answer check is apart."""
        kind = job["kind"]
        if kind == "deletion":
            spec = self.parser.parse_specification(job["text"])
            completeness = self.analysis.check_sufficient_completeness(spec)
            consistency = self.analysis.check_consistency(spec)
            return completeness, consistency
        if kind == "client":
            spec = self.parser.parse_specification(self.blocks[job["spec"]])
            program = self.verify.parse_client_program(job["source"], spec)
            return self.verify.verify_client(program)
        mode = self.verify.Mode[job["mode"]]
        lemmas = self.lemmas if job["mode"] == "REACHABLE" else ()
        return self.verify.verify_representation(
            self.representation, mode, lemmas=lemmas
        )

    def check(self, job: dict, verdict) -> bool:
        kind = job["kind"]
        if kind == "deletion":
            completeness, consistency = verdict
            reported = {inputs.reported_shape(str(m.pattern)) for m in completeness.missing}
            ok = (
                not completeness.sufficiently_complete
                and set(job["expected_missing"]) <= reported
                and consistency.consistent
            )
            if not ok:
                self._problem(f"deletion {job['spec']} ({job['label']}): "
                              f"reported {sorted(reported)}, expected "
                              f"{job['expected_missing']}, consistent="
                              f"{consistency.consistent}")
            return ok
        if kind == "client":
            ok = True
            for (assertion, result), truth in zip(verdict.outcomes, job["truths"]):
                self.assertions += 1
                if result.proved != truth:
                    ok = False
                    if truth:
                        self.undecided += 1
                    self._problem(f"assert {assertion}: proved={result.proved}, "
                                  f"reference says {truth}")
            return ok and len(verdict.outcomes) == len(job["truths"])
        failed = sorted(verdict.failed_labels)
        self.assertions += len(verdict.outcomes)
        missing = set(failed) - set(job["expected_failed"])
        self.undecided += len(missing)
        if failed != job["expected_failed"]:
            self._problem(f"representation {job['mode']}: failed {failed}, "
                          f"expected {job['expected_failed']}")
            return False
        return True

    def _problem(self, text: str) -> None:
        if len(self.problems) < 5:
            self.problems.append(text)
