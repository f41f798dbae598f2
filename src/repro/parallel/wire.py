"""A portable wire format for terms, outcomes, rule sets and budgets.

Hash-consed :class:`~repro.algebra.terms.Term` identity does not survive
a process boundary: every worker process owns its own intern table, so
terms must cross as *structure* and be rebuilt — re-interned — on the
other side.  This module is that boundary.  Everything it produces is
plain JSON-compatible data (dicts, lists, strings, numbers, ``None``),
so payloads survive any transport: pickle over a process pool today, a
socket or a file tomorrow.

Design points:

* **Table form, not tree form.**  A payload carries three tables —
  sorts, operations, term nodes — and encodes each exactly once.  Term
  nodes are stored in postorder with children referenced by table
  index, so shared subterms wire once (the sharing hash consing bought
  in this process is preserved across the boundary) and both encoding
  and decoding are iterative: a 100k-deep rewrite subject needs no
  recursion-limit fiddling.
* **Re-interning is free.**  Decoding rebuilds nodes through the
  ordinary :class:`Var`/:class:`Lit`/:class:`Err`/:class:`App`/
  :class:`Ite` constructors, which intern as a side effect — the
  receiving process ends up with maximally shared terms without any
  extra pass.
* **Builtins travel by reference.**  An operation's Python evaluator
  cannot be serialised as data; it crosses as a ``module:qualname``
  string resolved by import on the far side.  Only module-level
  functions qualify — a lambda or closure raises :class:`WireError` at
  *encode* time, in the sending process, where the failure is
  actionable.
"""

from __future__ import annotations

import importlib
from typing import Iterable, Optional, Sequence

from repro.algebra.signature import Operation
from repro.algebra.sorts import Sort
from repro.algebra.terms import App, Err, Ite, Lit, Term, Var
from repro.rewriting.rules import RewriteRule, RuleSet
from repro.runtime.budget import EvaluationBudget
from repro.runtime.outcome import Outcome

__all__ = [
    "WireError",
    "TermTableEncoder",
    "decode_nodes",
    "encode_term",
    "decode_term",
    "encode_terms",
    "decode_terms",
    "encode_outcomes",
    "decode_outcomes",
    "encode_ruleset",
    "decode_ruleset",
    "encode_budget",
    "decode_budget",
    "encode_span_events",
    "decode_span_events",
]

#: Bumped when the payload layout changes incompatibly; decoders reject
#: versions they do not understand instead of misreading them.
WIRE_VERSION = 1

#: JSON-representable literal payloads that pass through unchanged.
_PRIMITIVES = (str, int, float, bool, type(None))


class WireError(ValueError):
    """A value cannot cross the process boundary (or a payload is
    malformed / from an incompatible wire version)."""


def _encode_value(value: object) -> object:
    """A literal's payload: primitives pass through; tuples (the only
    hashable container the term layer admits in practice) nest as a
    tagged dict, since JSON has no tuple."""
    if isinstance(value, bool) or value is None or isinstance(value, (str, float)):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, tuple):
        return {"t": [_encode_value(item) for item in value]}
    raise WireError(
        f"literal value {value!r} of type {type(value).__name__} is not "
        "wire-representable (expected str/int/float/bool/None or a tuple "
        "of those)"
    )


def _decode_value(payload: object) -> object:
    if isinstance(payload, dict):
        return tuple(_decode_value(item) for item in payload["t"])
    return payload


def _builtin_ref(op: Operation) -> Optional[str]:
    """The ``module:qualname`` reference for an operation's builtin
    evaluator, or ``None``.  Refuses anything not resolvable by import
    on the far side (lambdas, closures, instance methods)."""
    fn = op.builtin
    if fn is None:
        return None
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", "")
    if not module or not qualname or "<" in qualname or "." in qualname:
        raise WireError(
            f"builtin evaluator of {op.name} ({fn!r}) is not addressable "
            "as module:qualname — only module-level functions can cross "
            "a process boundary"
        )
    if _resolve_builtin(f"{module}:{qualname}") is not fn:
        raise WireError(
            f"builtin evaluator of {op.name} does not round-trip through "
            f"{module}:{qualname}"
        )
    return f"{module}:{qualname}"


def _resolve_builtin(ref: Optional[str]):
    if ref is None:
        return None
    module_name, _, qualname = ref.partition(":")
    try:
        module = importlib.import_module(module_name)
        fn = getattr(module, qualname)
    except (ImportError, AttributeError) as exc:
        raise WireError(f"cannot resolve builtin reference {ref!r}: {exc}")
    if not callable(fn):
        raise WireError(f"builtin reference {ref!r} is not callable")
    return fn


class TermTableEncoder:
    """Accumulates the shared sort/operation/node tables for one payload.

    Feed it terms via :meth:`term_id` (each returns the term's node-table
    index), then take the tables with :meth:`tables` and embed them in
    the enclosing message alongside whatever references the ids.
    """

    def __init__(self) -> None:
        self._sorts: list = []
        self._sort_ids: dict[Sort, int] = {}
        self._ops: list = []
        self._op_ids: dict[Operation, int] = {}
        self._nodes: list = []
        self._node_ids: dict[Term, int] = {}

    def sort_id(self, sort: Sort) -> int:
        ids = self._sort_ids
        known = ids.get(sort)
        if known is not None:
            return known
        param_ids = [self.sort_id(param) for param in sort.parameters]
        index = ids[sort] = len(self._sorts)
        self._sorts.append([sort.name, param_ids])
        return index

    def op_id(self, op: Operation) -> int:
        ids = self._op_ids
        known = ids.get(op)
        if known is not None:
            return known
        entry = {
            "name": op.name,
            "domain": [self.sort_id(s) for s in op.domain],
            "range": self.sort_id(op.range),
            "builtin": _builtin_ref(op),
        }
        index = ids[op] = len(self._ops)
        self._ops.append(entry)
        return index

    def term_id(self, term: Term) -> int:
        """Encode ``term`` (sharing everything already in the tables)
        and return its node index.  Iterative postorder: children are
        appended before parents, so decoding is a single forward pass."""
        ids = self._node_ids
        known = ids.get(term)
        if known is not None:
            return known
        stack = [term]
        while stack:
            node = stack[-1]
            if node in ids:
                stack.pop()
                continue
            pending = [kid for kid in node.children() if kid not in ids]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            ids[node] = len(self._nodes)
            self._nodes.append(self._encode_node(node, ids))
        return ids[term]

    def _encode_node(self, node: Term, ids: dict) -> list:
        if isinstance(node, App):
            return ["a", self.op_id(node.op), [ids[a] for a in node.args]]
        if isinstance(node, Ite):
            return [
                "i",
                ids[node.cond],
                ids[node.then_branch],
                ids[node.else_branch],
            ]
        if isinstance(node, Var):
            return ["v", node.name, self.sort_id(node.sort)]
        if isinstance(node, Lit):
            return ["l", _encode_value(node.value), self.sort_id(node.sort)]
        if isinstance(node, Err):
            return ["e", self.sort_id(node.sort)]
        raise WireError(f"unknown term node class: {type(node).__name__}")

    def tables(self) -> dict:
        return {
            "version": WIRE_VERSION,
            "sorts": self._sorts,
            "ops": self._ops,
            "nodes": self._nodes,
        }


def decode_nodes(payload: dict) -> list[Term]:
    """Rebuild the node table of ``payload``: one forward pass through
    the ordinary term constructors, which re-intern every node in this
    process's table.  Returns the full node list; callers index it with
    whatever ids the enclosing message carries."""
    if payload.get("version") != WIRE_VERSION:
        raise WireError(
            f"wire version mismatch: payload says "
            f"{payload.get('version')!r}, this process speaks {WIRE_VERSION}"
        )
    sorts: list[Sort] = []
    for name, param_ids in payload["sorts"]:
        sorts.append(Sort(name, tuple(sorts[i] for i in param_ids)))
    ops: list[Operation] = []
    for entry in payload["ops"]:
        ops.append(
            Operation(
                entry["name"],
                tuple(sorts[i] for i in entry["domain"]),
                sorts[entry["range"]],
                _resolve_builtin(entry["builtin"]),
            )
        )
    nodes: list[Term] = []
    for row in payload["nodes"]:
        tag = row[0]
        if tag == "a":
            node: Term = App(ops[row[1]], tuple(nodes[i] for i in row[2]))
        elif tag == "i":
            node = Ite(nodes[row[1]], nodes[row[2]], nodes[row[3]])
        elif tag == "v":
            node = Var(row[1], sorts[row[2]])
        elif tag == "l":
            node = Lit(_decode_value(row[1]), sorts[row[2]])
        elif tag == "e":
            node = Err(sorts[row[1]])
        else:
            raise WireError(f"unknown node tag {tag!r}")
        nodes.append(node)
    return nodes


# ----------------------------------------------------------------------
# Whole-message encoders
# ----------------------------------------------------------------------
def encode_terms(terms: Iterable[Term]) -> dict:
    """A batch of terms as one payload (shared structure wired once)."""
    enc = TermTableEncoder()
    roots = [enc.term_id(term) for term in terms]
    return {**enc.tables(), "roots": roots}


def decode_terms(payload: dict) -> list[Term]:
    nodes = decode_nodes(payload)
    return [nodes[i] for i in payload["roots"]]


def encode_term(term: Term) -> dict:
    return encode_terms([term])


def decode_term(payload: dict) -> Term:
    (term,) = decode_terms(payload)
    return term


def encode_outcomes(outcomes: Sequence[Outcome]) -> dict:
    """A batch of outcomes; carried terms (results, partial evidence,
    divergence traces) all share one node table."""
    enc = TermTableEncoder()
    rows = []
    for outcome in outcomes:
        rows.append(
            {
                "status": outcome.status,
                "term": (
                    None
                    if outcome.term is None
                    else enc.term_id(outcome.term)
                ),
                "reason": outcome.reason,
                "trace": [enc.term_id(t) for t in outcome.trace],
                "detail": outcome.detail,
            }
        )
    return {**enc.tables(), "outcomes": rows}


def decode_outcomes(payload: dict) -> list[Outcome]:
    nodes = decode_nodes(payload)
    outcomes = []
    for row in payload["outcomes"]:
        outcomes.append(
            Outcome(
                status=row["status"],
                term=None if row["term"] is None else nodes[row["term"]],
                reason=row["reason"],
                trace=tuple(nodes[i] for i in row["trace"]),
                detail=row["detail"],
            )
        )
    return outcomes


def encode_ruleset(rules: RuleSet) -> dict:
    """A rule set as data: rule order, labels and both sides of every
    rule — everything :meth:`RuleSet.fingerprint` digests."""
    enc = TermTableEncoder()
    rows = [
        {
            "lhs": enc.term_id(rule.lhs),
            "rhs": enc.term_id(rule.rhs),
            "label": rule.label,
        }
        for rule in rules
    ]
    return {**enc.tables(), "rules": rows}


def decode_ruleset(payload: dict) -> RuleSet:
    nodes = decode_nodes(payload)
    return RuleSet(
        RewriteRule(nodes[row["lhs"]], nodes[row["rhs"]], row["label"])
        for row in payload["rules"]
    )


def encode_span_events(events: Sequence[dict]) -> dict:
    """A worker's trace-event batch, shipped home with its reply.

    Span events are already wire-shaped (flat dicts of primitives, plus
    the per-rule count dict on ``firings`` events) — the tracer builds
    them JSON-ready — so the codec's job is the version envelope
    and a structural check at *encode* time, in the worker, where a
    non-portable event would be a tracer bug worth failing loudly on.
    """
    for event in events:
        if not isinstance(event, dict) or "ev" not in event:
            raise WireError(f"not a trace event: {event!r}")
    return {"version": WIRE_VERSION, "events": list(events)}


def decode_span_events(payload: dict) -> list[dict]:
    if payload.get("version") != WIRE_VERSION:
        raise WireError(
            f"wire version mismatch: payload says "
            f"{payload.get('version')!r}, this process speaks {WIRE_VERSION}"
        )
    return payload["events"]


def encode_budget(budget: Optional[EvaluationBudget]) -> Optional[dict]:
    if budget is None:
        return None
    return {
        "fuel": budget.fuel,
        "deadline": budget.deadline,
        "max_intern_growth": budget.max_intern_growth,
        "max_memo_entries": budget.max_memo_entries,
    }


def decode_budget(payload: Optional[dict]) -> Optional[EvaluationBudget]:
    if payload is None:
        return None
    return EvaluationBudget(
        fuel=payload["fuel"],
        deadline=payload["deadline"],
        max_intern_growth=payload["max_intern_growth"],
        max_memo_entries=payload["max_memo_entries"],
    )
