"""Verification of representations: obligations, equational proving,
generator induction, and ground model checking."""

from repro.verify.representation import (
    CaseDefinedOperation,
    DefinedOperation,
    Representation,
    RepresentationError,
)
from repro.verify.obligations import (
    Assumption,
    ProofObligation,
    derive_assumption_1,
    obligations_for,
)
from repro.verify.prover import (
    ConstructorCase,
    EquationalProver,
    Fact,
    ProofResult,
    ProofStep,
    ProverEngine,
    replace_constant,
)
from repro.verify.induction import (
    GeneratorInduction,
    InductionResult,
    Lemma,
    not_newstack_lemma,
)
from repro.verify.modelcheck import (
    Counterexample,
    ModelCheckReport,
    model_check,
    reachable_states,
)
from repro.verify.driver import (
    Mode,
    ObligationOutcome,
    VerificationReport,
    make_prover,
    verify_representation,
)
from repro.verify.skolem import fresh_constant, is_skolem, skolemize_pair
from repro.verify.client import (
    Assertion,
    ClientProgram,
    ClientProgramError,
    ClientVerificationReport,
    parse_client_program,
    verify_client,
)

__all__ = [
    "CaseDefinedOperation",
    "DefinedOperation",
    "Representation",
    "RepresentationError",
    "Assumption",
    "ProofObligation",
    "derive_assumption_1",
    "obligations_for",
    "ConstructorCase",
    "EquationalProver",
    "Fact",
    "ProofResult",
    "ProofStep",
    "ProverEngine",
    "replace_constant",
    "GeneratorInduction",
    "InductionResult",
    "Lemma",
    "not_newstack_lemma",
    "Counterexample",
    "ModelCheckReport",
    "model_check",
    "reachable_states",
    "Mode",
    "ObligationOutcome",
    "VerificationReport",
    "make_prover",
    "verify_representation",
    "fresh_constant",
    "is_skolem",
    "skolemize_pair",
    "Assertion",
    "ClientProgram",
    "ClientProgramError",
    "ClientVerificationReport",
    "parse_client_program",
    "verify_client",
]
