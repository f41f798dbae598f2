"""Term rewriting: the operational reading of algebraic axioms."""

from repro.rewriting.rules import RewriteRule, RuleSet, rule_from_axiom
from repro.rewriting.engine import (
    BACKENDS,
    EngineStats,
    RewriteEngine,
    RewriteLimitError,
)
from repro.runtime.budget import DEFAULT_FUEL
from repro.rewriting.codegen import (
    CodegenModule,
    CodegenRules,
    codegen_module,
)
from repro.rewriting.ordering import (
    ITE_SYMBOL,
    Precedence,
    orient,
    rpo_greater,
    rule_decreases,
)
from repro.rewriting.critical_pairs import (
    CriticalPair,
    all_critical_pairs,
    critical_pairs_between,
    joinable,
    unjoinable_pairs,
)
from repro.rewriting.completion import (
    CompletionResult,
    CompletionStatus,
    complete,
)

__all__ = [
    "RewriteRule",
    "RuleSet",
    "rule_from_axiom",
    "BACKENDS",
    "CodegenModule",
    "CodegenRules",
    "codegen_module",
    "DEFAULT_FUEL",
    "EngineStats",
    "RewriteEngine",
    "RewriteLimitError",
    "ITE_SYMBOL",
    "Precedence",
    "orient",
    "rpo_greater",
    "rule_decreases",
    "CriticalPair",
    "all_critical_pairs",
    "critical_pairs_between",
    "joinable",
    "unjoinable_pairs",
    "CompletionResult",
    "CompletionStatus",
    "complete",
]
