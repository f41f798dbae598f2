"""A portable wire format for terms, outcomes, rule sets, budgets and spans.

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
  string.  Only module-level functions qualify — a lambda or closure
  raises :class:`WireError` at *encode* time, in the sending process,
  where the failure is actionable.
* **Rows resolve through a table of known operations.**  The decoder
  looks each sort and operation row up in an :class:`OperationTable`,
  so decoded terms carry the very ``Operation`` objects the rules were
  built with (intern probes and rule dispatch then compare by
  identity), and a row costs no import.  A table made from a
  signature is closed: a payload naming an undeclared operation, or a
  declared one with another builtin, is refused and nothing it names
  is imported — a value is a term over the declared operations, and a
  builtin is the meaning its imported type declares.  An open table,
  for payloads between processes of this program, learns a row it has
  not seen by importing its builtin reference, once; without a table,
  decoding uses a new open table.
* **Malformed payloads raise :class:`WireError`**, and nothing else:
  every index must be an ``int`` pointing at an earlier row.
"""

from __future__ import annotations

import importlib
import math
from typing import Iterable, Optional, Sequence

from repro.algebra.signature import Operation
from repro.algebra.sorts import Sort, SortError
from repro.algebra.terms import App, Err, Ite, Lit, Term, Var
from repro.obs.otlp import span_problems
from repro.rewriting.rules import RewriteRule, RuleSet
from repro.runtime.budget import EvaluationBudget
from repro.runtime.outcome import STATUSES, Outcome

__all__ = [
    "WireError",
    "OperationTable",
    "TermTableEncoder",
    "decode_nodes",
    "rule_operations",
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
    "decode_spans",
]

#: Bumped when the payload layout changes incompatibly; decoders reject
#: versions they do not understand instead of misreading them.
WIRE_VERSION = 1

#: How deeply tuple literals may nest.  Real literals are flat; the
#: bound keeps a hostile payload from exhausting the stack.
MAX_LITERAL_DEPTH = 32


class WireError(ValueError):
    """A value cannot cross the process boundary (or a payload is
    malformed / from an incompatible wire version)."""


class _Malformed:
    """``with _MALFORMED:`` reports whatever a malformed payload trips
    over as a WireError."""

    CAUGHT = (KeyError, IndexError, TypeError, ValueError, AttributeError, SortError)

    def __enter__(self) -> None:
        return None

    def __exit__(self, kind, exc, tb) -> None:
        if exc is not None and isinstance(exc, self.CAUGHT) and not isinstance(
            exc, WireError
        ):
            raise WireError(
                f"malformed payload: {kind.__name__}: {exc}"
            ) from None


_MALFORMED = _Malformed()


def _rows(table: list, indices) -> list:
    """``table[i]`` for each index, all of them checked.  The hot path
    of decoding, so the check is one filter: a bool, float or negative
    index drops out (and the lengths differ), and one past the rows
    raises IndexError."""
    picked = [table[i] for i in indices if type(i) is int and i >= 0]
    if len(picked) != len(indices):
        raise WireError("an index is not a non-negative int")
    return picked


def _encode_value(value: object, depth: int = 0) -> object:
    """A literal's payload: primitives pass through; tuples (the only
    hashable container the term layer admits in practice) nest as a
    tagged dict, since JSON has no tuple."""
    if isinstance(value, bool) or value is None or isinstance(value, (str, float)):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, tuple) and depth < MAX_LITERAL_DEPTH:
        return {"t": [_encode_value(item, depth + 1) for item in value]}
    raise WireError(
        f"literal value of type {type(value).__name__} is not "
        "wire-representable (expected str/int/float/bool/None or a tuple "
        f"of those, nested at most {MAX_LITERAL_DEPTH} deep)"
    )


def _decode_value(payload: object, depth: int = 0) -> object:
    if payload is None or type(payload) in (str, int, float, bool):
        return payload
    if (
        type(payload) is dict
        and len(payload) == 1
        and type(payload.get("t")) is list
        and depth < MAX_LITERAL_DEPTH
    ):
        return tuple(_decode_value(item, depth + 1) for item in payload["t"])
    raise WireError(f"not a wire literal: a {type(payload).__name__}")


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
    ref = f"{module}:{qualname}"
    if _resolve_builtin(ref) is not fn:
        raise WireError(
            f"builtin evaluator of {op.name} does not round-trip through "
            f"{ref}"
        )
    return ref


def _resolve_builtin(ref: Optional[str]):
    if ref is None:
        return None
    if type(ref) is not str:
        raise WireError(f"builtin reference is a {type(ref).__name__}")
    module_name, _, qualname = ref.partition(":")
    try:
        module = importlib.import_module(module_name)
        fn = getattr(module, qualname)
    except (ImportError, AttributeError, ValueError) as exc:
        raise WireError(f"cannot resolve builtin reference {ref!r}: {exc}")
    if not callable(fn):
        raise WireError(f"builtin reference {ref!r} is not callable")
    return fn


class OperationTable:
    """The sorts and operations that payload rows decode to.

    A row is keyed by value: a sort by name and parameters, an
    operation by name, domain, range and builtin reference.  The first
    object given for a key (``operations`` and ``sorts``, and the sorts
    the operations use) is the one every matching row decodes to; an
    operation whose builtin cannot cross the wire is left out.

    ``imports=False`` (a table made from a signature) is closed: a row
    with no entry is a :class:`WireError`.  ``imports=True`` is open: a
    row with no entry is built — its builtin imported — and added.
    Entries are only ever added with ``dict.setdefault``, so threads
    may share a table.
    """

    def __init__(
        self,
        operations: Iterable[Operation] = (),
        sorts: Iterable[Sort] = (),
        *,
        imports: bool = False,
    ) -> None:
        self.imports = imports
        self._sorts: dict[tuple, Sort] = {}
        self._ops: dict[tuple, Operation] = {}
        for sort in sorts:
            self._add_sort(sort)
        for op in operations:
            try:
                ref = _builtin_ref(op)
            except WireError:
                continue  # no payload can name it
            key = (
                op.name,
                tuple(self._add_sort(s) for s in op.domain),
                self._add_sort(op.range),
                ref,
            )
            self._ops.setdefault(key, op)

    def _add_sort(self, sort: Sort) -> Sort:
        key = (sort.name, tuple(self._add_sort(p) for p in sort.parameters))
        return self._sorts.setdefault(key, sort)

    def resolve(self, sort_rows, op_rows) -> tuple[list[Sort], list[Operation]]:
        """A payload's sort and operation rows as this table's objects."""
        sorts: list[Sort] = []
        for name, params in sort_rows:
            key = (name, tuple(_rows(sorts, params)))
            sort = self._sorts.get(key)
            if sort is None:
                sort = self._learn_sort(key)
            sorts.append(sort)
        ops: list[Operation] = []
        for row in op_rows:
            key = (
                row["name"],
                tuple(_rows(sorts, row["domain"])),
                *_rows(sorts, [row["range"]]),
                row["builtin"],
            )
            op = self._ops.get(key)
            if op is None:
                op = self._learn_operation(key)
            ops.append(op)
        return sorts, ops

    def _learn_sort(self, key: tuple) -> Sort:
        name, params = key
        if not self.imports:
            raise WireError(f"sort {name!r} is not declared")
        if type(name) is not str:
            raise WireError(f"sort name is a {type(name).__name__}")
        return self._sorts.setdefault(key, Sort(name, params))

    def _learn_operation(self, key: tuple) -> Operation:
        name, domain, range_sort, ref = key
        if not self.imports:
            raise WireError(
                f"operation {name!r} (builtin {ref!r}) is not declared"
            )
        if type(name) is not str:
            raise WireError(f"operation name is a {type(name).__name__}")
        op = Operation(name, domain, range_sort, _resolve_builtin(ref))
        return self._ops.setdefault(key, op)


def rule_operations(rules: Iterable[RewriteRule]) -> list[Operation]:
    """The operation objects the rules' terms carry, in first-use order."""
    seen: dict[int, Operation] = {}
    for rule in rules:
        stack = [rule.lhs, rule.rhs]
        while stack:
            node = stack.pop()
            if isinstance(node, App):
                seen.setdefault(id(node.op), node.op)
            stack.extend(node.children())
    return list(seen.values())


class TermTableEncoder:
    """Accumulates the shared sort/operation/node tables for one payload.

    Feed it terms via :meth:`term_id` (each returns the term's node-table
    index), then take the tables with :meth:`tables` and embed them in
    the enclosing message alongside whatever references the ids.

    Nodes and operations are keyed by identity — hash-consed terms are
    equal exactly when identical — and the encoder holds every node it
    has keyed, so no id is reused while it lives.
    """

    def __init__(self) -> None:
        self._sorts: list = []
        self._sort_ids: dict[Sort, int] = {}
        self._ops: list = []
        self._op_ids: dict[int, int] = {}
        self._nodes: list = []
        self._node_ids: dict[int, int] = {}
        self._held: list[Term] = []

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
        known = ids.get(id(op))
        if known is not None:
            return known
        entry = {
            "name": op.name,
            "domain": [self.sort_id(s) for s in op.domain],
            "range": self.sort_id(op.range),
            "builtin": _builtin_ref(op),
        }
        index = ids[id(op)] = len(self._ops)
        self._ops.append(entry)
        return index

    def term_id(self, term: Term) -> int:
        """Encode ``term`` (sharing everything already in the tables)
        and return its node index.  Iterative postorder: children are
        appended before parents, so decoding is a single forward pass."""
        ids = self._node_ids
        known = ids.get(id(term))
        if known is not None:
            return known
        rows, held = self._nodes, self._held
        stack = [term]
        while stack:
            node = stack.pop()
            if id(node) in ids:
                continue
            kids = node.args if type(node) is App else node.children()
            pending = [kid for kid in kids if id(kid) not in ids]
            if pending:
                stack.append(node)
                stack.extend(pending)
                continue
            ids[id(node)] = len(rows)
            rows.append(self._encode_node(node, kids, ids))
            held.append(node)
        return ids[id(term)]

    def _encode_node(self, node: Term, kids: tuple, ids: dict) -> list:
        if type(node) is App:
            return ["a", self.op_id(node.op), [ids[id(a)] for a in kids]]
        if isinstance(node, Ite):
            return ["i", *[ids[id(kid)] for kid in kids]]
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


def _check_version(payload: object) -> None:
    version = payload.get("version") if type(payload) is dict else None
    if type(version) is not int or version != WIRE_VERSION:
        shown = version if type(version) is int else type(version).__name__
        raise WireError(
            f"wire version mismatch: payload says {shown}, "
            f"this process speaks {WIRE_VERSION}"
        )


def decode_nodes(
    payload: dict, table: Optional[OperationTable] = None
) -> list[Term]:
    """Rebuild the node table of ``payload``: one forward pass through
    the ordinary term constructors, which re-intern every node in this
    process's table.  Sort and operation rows resolve through ``table``
    (default: a new open table, so every row is built afresh).  Returns
    the full node list; callers index it with whatever ids the enclosing
    message carries."""
    _check_version(payload)
    if table is None:
        table = OperationTable(imports=True)
    with _MALFORMED:
        sorts, ops = table.resolve(
            payload["sorts"], payload["ops"]
        )
        nodes: list[Term] = []
        append = nodes.append
        for row in payload["nodes"]:
            tag = row[0]
            if tag == "a":
                _, k, kids = row
                args = [nodes[i] for i in kids if type(i) is int and i >= 0]
                if len(args) != len(kids) or type(k) is not int or k < 0:
                    raise WireError("an index is not a non-negative int")
                append(App(ops[k], tuple(args)))
            elif tag == "l":
                _, value, s = row
                if type(s) is not int or s < 0:
                    raise WireError("a sort index is not a non-negative int")
                append(Lit(_decode_value(value), sorts[s]))
            elif tag == "i":
                _, *branches = row
                append(Ite(*_rows(nodes, branches)))
            elif tag == "v":
                _, name, s = row
                if type(name) is not str:
                    raise WireError(f"variable name is a {type(name).__name__}")
                (sort,) = _rows(sorts, [s])
                append(Var(name, sort))
            elif tag == "e":
                _, s = row
                (sort,) = _rows(sorts, [s])
                append(Err(sort))
            else:
                raise WireError("unknown node tag")
    return nodes


# ----------------------------------------------------------------------
# Whole-message encoders
# ----------------------------------------------------------------------
def encode_terms(terms: Iterable[Term]) -> dict:
    """A batch of terms as one payload (shared structure wired once)."""
    enc = TermTableEncoder()
    roots = [enc.term_id(term) for term in terms]
    return {**enc.tables(), "roots": roots}


def decode_terms(
    payload: dict, table: Optional[OperationTable] = None
) -> list[Term]:
    """The terms of an :func:`encode_terms` payload; ``table`` as for
    :func:`decode_nodes`."""
    nodes = decode_nodes(payload, table)
    with _MALFORMED:
        return _rows(nodes, payload["roots"])


def encode_term(term: Term) -> dict:
    return encode_terms([term])


def decode_term(payload: dict, table: Optional[OperationTable] = None) -> Term:
    with _MALFORMED:
        (term,) = decode_terms(payload, table)
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


def decode_outcomes(
    payload: dict, table: Optional[OperationTable] = None
) -> list[Outcome]:
    """The outcomes of an :func:`encode_outcomes` payload; ``table`` as
    for :func:`decode_nodes`."""
    nodes = decode_nodes(payload, table)
    outcomes = []
    with _MALFORMED:
        for row in payload["outcomes"]:
            status, term, reason = row["status"], row["term"], row["reason"]
            trace, detail = row["trace"], row["detail"]
            if (
                status not in STATUSES
                or (reason is not None and type(reason) is not str)
                or type(trace) is not list
                or type(detail) is not str
            ):
                raise WireError("malformed outcome row")
            if term is not None:
                if type(term) is not int or term < 0:
                    raise WireError("an index is not a non-negative int")
                term = nodes[term]
            outcomes.append(
                Outcome(
                    status=status,
                    term=term,
                    reason=reason,
                    trace=tuple(_rows(nodes, trace)) if trace else (),
                    detail=detail,
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


def decode_ruleset(
    payload: dict, table: Optional[OperationTable] = None
) -> RuleSet:
    nodes = decode_nodes(payload, table)
    with _MALFORMED:
        return RuleSet(
            [
                RewriteRule(*_rows(nodes, [row["lhs"], row["rhs"]]), row["label"])
                for row in payload["rules"]
            ]
        )


def decode_spans(payload: object) -> list[dict]:
    """A batch of OTLP span records from another process — a shard
    worker's reply, the daemon's trace-return body — checked before it
    reaches a tracer: every record passes
    :func:`~repro.obs.otlp.span_problems`, ids are unique, and a parent
    inside the batch comes before its children."""
    if type(payload) is not list:
        raise WireError(f"a span batch is a {type(payload).__name__}")
    for record in payload:
        problems = span_problems(record)
        if problems:
            raise WireError(f"malformed span record: {problems[0]}")
    ids = {record["spanId"] for record in payload}
    seen: set = set()
    for record in payload:
        parent = record.get("parentSpanId")
        if record["spanId"] in seen or (parent in ids and parent not in seen):
            raise WireError(
                f"span {record['spanId']} repeats or precedes its parent"
            )
        seen.add(record["spanId"])
    return payload


def encode_budget(budget: Optional[EvaluationBudget]) -> Optional[dict]:
    if budget is None:
        return None
    return {
        "fuel": budget.fuel,
        "deadline": budget.deadline,
        "max_intern_growth": budget.max_intern_growth,
    }


_BUDGET_FIELDS = frozenset(("fuel", "deadline", "max_intern_growth"))


def _count(value: object) -> bool:
    """A JSON integer >= 0 (a bool is not one)."""
    return type(value) is int and value >= 0


def decode_budget(payload: object) -> Optional[EvaluationBudget]:
    """The budget ``payload`` carries, or ``None`` for ``None``.

    A budget payload has exactly three keys: ``fuel``, an int >= 0;
    ``deadline``, null or a finite number >= 0; and
    ``max_intern_growth``, null or an int >= 0.  Any other shape — a
    missing or unknown key, a bool or string where a number belongs, a
    negative or non-finite number — raises :class:`WireError`, so a
    limit the runtime does not know is refused rather than dropped.
    """
    if payload is None:
        return None
    if not isinstance(payload, dict) or payload.keys() != _BUDGET_FIELDS:
        raise WireError(
            "a budget is an object with exactly the keys "
            f"{sorted(_BUDGET_FIELDS)}"
        )
    fuel = payload["fuel"]
    deadline = payload["deadline"]
    growth = payload["max_intern_growth"]
    if not _count(fuel):
        raise WireError(f"budget fuel must be an int >= 0, got {fuel!r}")
    if deadline is not None and not (
        type(deadline) in (int, float) and 0 <= deadline < math.inf
    ):
        raise WireError(
            f"budget deadline must be null or a finite number >= 0, "
            f"got {deadline!r}"
        )
    if growth is not None and not _count(growth):
        raise WireError(
            f"budget max_intern_growth must be null or an int >= 0, "
            f"got {growth!r}"
        )
    return EvaluationBudget(
        fuel=fuel, deadline=deadline, max_intern_growth=growth
    )
