"""The wire decoders raise only :class:`WireError`, and never hang.

Whatever payload they are given — a valid one with random fields
replaced, deleted or duplicated, bad indices and tags, or tuple
literals nested far deeper than any real one — ``decode_terms`` and
``decode_outcomes`` either return terms or raise ``WireError``.  Client
terms decode against a closed table (as the daemon reads them) and
outcomes against this process's open one (as shard replies are read).
``decode_budget`` either returns a budget within its documented ranges
or raises ``WireError``, on any JSON value.  ``decode_spans`` raises
only ``WireError``, and a span batch it accepts merges into a tracer
whose export passes :func:`~repro.obs.otlp.validate_otlp`.

Run with ``HYPOTHESIS_PROFILE=nightly`` for a longer search.
"""

from __future__ import annotations

import copy
import json
from datetime import timedelta

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.adt.queue import FRONT, QUEUE_SPEC, queue_term
from repro.adt.symboltable import SYMBOLTABLE_SPEC
from repro.algebra.terms import App, Err, Lit, Term
from repro.obs.otlp import to_otlp, validate_otlp
from repro.obs.trace import Tracer, tracing
from repro.parallel import wire
from repro.parallel.wire import WireError
from repro.runtime import EvaluationBudget, Outcome
from repro.spec.parser import parse_term
from repro.testing.termgen import GroundTermEnumerator


def _table(spec) -> wire.OperationTable:
    signature = spec.full_signature()
    return wire.OperationTable(signature.operations, signature.sorts)


def _observations(spec, count: int) -> list[Term]:
    enumerator = GroundTermEnumerator(spec)
    terms: list[Term] = []
    for op in spec.own_operations():
        for _, term in enumerator.observations(op):
            terms.append(term)
            if len(terms) % 4 == 0:
                break
        if len(terms) >= count:
            break
    return terms


SPECS = [QUEUE_SPEC, SYMBOLTABLE_SPEC]
TABLES = [_table(spec) for spec in SPECS]
TERM_PAYLOADS = [
    json.loads(json.dumps(wire.encode_terms(_observations(spec, 8))))
    for spec in SPECS
]
OUTCOME_PAYLOADS = [
    json.loads(
        json.dumps(
            wire.encode_outcomes(
                [
                    Outcome(status="normalized", term=queue_term(["a", 1])),
                    Outcome(status="error_value", term=Err(QUEUE_SPEC.type_of_interest)),
                    Outcome(
                        status="diverged",
                        term=App(FRONT, (queue_term(["b"]),)),
                        reason="cycle",
                        trace=(queue_term(["b"]), queue_term([])),
                        detail="period-2 cycle",
                    ),
                    Outcome(status="truncated", reason="fuel", detail="x"),
                ]
            )
        )
    ),
    json.loads(
        json.dumps(
            wire.encode_outcomes(
                [
                    Outcome(
                        status="normalized",
                        term=parse_term(
                            "IS_INBLOCK?(ADD(INIT, 'x', 'a'), 'x')",
                            SYMBOLTABLE_SPEC,
                        ),
                    )
                ]
            )
        )
    ),
]

#: Values a mutation writes: indices near and past the edges, the
#: non-int look-alikes Python would accept as indices, and shapes of
#: the wrong kind.  No free text: an open table imports the builtin
#: references it has not seen, and a fuzzer must not name real modules.
VALUES = st.sampled_from(
    [
        -2, -1, 0, 1, 2, 3, 7, 10**9, True, False, 0.0, 1.5, None, "",
        "a", "i", "v", "l", "e", "x", "Queue", [], [0], [-1], [[0]], {},
        {"t": 1}, {"t": "ab"}, {"t": [[]]}, {"a": 1},
    ]
)

FUZZ = settings(
    deadline=timedelta(seconds=5),
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _paths(node, path=()):
    """Every (container path, key) in a JSON-like value."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield path, key
            yield from _paths(value, (*path, key))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield path, index
            yield from _paths(value, (*path, index))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


@st.composite
def mutated(draw, payloads):
    """One of ``payloads`` after a few replaced, deleted or duplicated
    fields anywhere in it."""
    payload = copy.deepcopy(draw(st.sampled_from(payloads)))
    for _ in range(draw(st.integers(1, 4))):
        places = list(_paths(payload))
        path, key = draw(st.sampled_from(places))
        container = _at(payload, path)
        edit = draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if edit == "replace":
            container[key] = copy.deepcopy(draw(VALUES))
        elif edit == "delete":
            del container[key]
        elif isinstance(container, list):
            container.insert(key, copy.deepcopy(container[key]))
    return payload


def _only_wire_errors(decode, payload):
    try:
        result = decode(payload)
    except WireError:
        return
    assert isinstance(result, list)


@FUZZ
@given(mutated(TERM_PAYLOADS), st.sampled_from(TABLES))
def test_mutated_terms_payload(payload, table):
    _only_wire_errors(lambda p: wire.decode_terms(p, table), payload)


@FUZZ
@given(mutated(TERM_PAYLOADS))
def test_mutated_terms_payload_open_table(payload):
    _only_wire_errors(wire.decode_terms, payload)


@FUZZ
@given(mutated(OUTCOME_PAYLOADS))
def test_mutated_outcomes_payload(payload):
    _only_wire_errors(wire.decode_outcomes, payload)


@st.composite
def bad_index(draw):
    """A terms payload with one child, root or sort index that is
    negative, a bool, a float or not yet defined."""
    payload = copy.deepcopy(draw(st.sampled_from(TERM_PAYLOADS)))
    nodes = payload["nodes"]
    row = draw(st.sampled_from(range(len(nodes))))
    bad = draw(st.sampled_from([-1, -2, True, False, 0.0, "0", None]))
    where = draw(st.sampled_from(["child", "root", "sort"]))
    if where == "root":
        payload["roots"][draw(st.sampled_from(range(len(payload["roots"]))))] = bad
    elif nodes[row][0] == "a" and nodes[row][2] and where == "child":
        kids = nodes[row][2]
        kids[draw(st.sampled_from(range(len(kids))))] = (
            bad if draw(st.booleans()) else row + draw(st.integers(0, 5))
        )
    elif nodes[row][0] in ("v", "l"):
        nodes[row][2] = bad if draw(st.booleans()) else len(payload["sorts"])
    else:
        payload["roots"][0] = len(nodes) + draw(st.integers(0, 5))
    return payload


@FUZZ
@given(bad_index(), st.sampled_from(TABLES))
def test_bad_index_is_a_wire_error(payload, table):
    try:
        wire.decode_terms(payload, table)
    except WireError:
        return
    raise AssertionError("a bad index decoded")


@FUZZ
@given(
    st.sampled_from(range(len(TERM_PAYLOADS))),
    st.text(max_size=3).filter(lambda tag: tag not in ("a", "i", "v", "l", "e")),
)
def test_unknown_tag_is_a_wire_error(which, tag):
    payload = copy.deepcopy(TERM_PAYLOADS[which])
    payload["nodes"][-1][0] = tag
    try:
        wire.decode_terms(payload, TABLES[which])
    except WireError:
        return
    raise AssertionError(f"tag {tag!r} decoded")


@FUZZ
@given(st.integers(wire.MAX_LITERAL_DEPTH + 1, 50_000), st.sampled_from(["list", "dict"]))
def test_deeply_nested_literal_is_a_wire_error(depth, shape):
    value: object = 1
    for _ in range(depth):
        value = {"t": [value]} if shape == "dict" else [value]
    payload = wire.encode_term(Lit("x", QUEUE_SPEC.operation("ADD").domain[1]))
    payload["nodes"][0][1] = value
    try:
        wire.decode_terms(payload)
    except WireError:
        return
    raise AssertionError("a literal nested past the bound decoded")


JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)

#: Budget-shaped objects: the three keys (some missing), a key that is
#: not a budget field now and then (the memo bound ``cache_size`` is an
#: engine option), and values of every JSON kind.
BUDGET_KEYS = st.sampled_from(
    ["fuel", "deadline", "max_intern_growth", "cache_size", "x"]
)
BUDGET_VALUES = (
    st.sampled_from(
        [None, True, False, 0, 1, -1, 10**30, 0.5, -0.5, "", "abc", "5", [], {}]
    )
    | st.floats()
    | st.integers()
)
BUDGETS = st.dictionaries(BUDGET_KEYS, BUDGET_VALUES, max_size=5) | st.fixed_dictionaries(
    {
        "fuel": BUDGET_VALUES,
        "deadline": BUDGET_VALUES,
        "max_intern_growth": BUDGET_VALUES,
    }
)


@FUZZ
@given(JSON | BUDGETS)
def test_budget_payload_decodes_or_is_a_wire_error(payload):
    try:
        budget = wire.decode_budget(payload)
    except WireError:
        return
    if payload is None:
        assert budget is None
        return
    assert isinstance(budget, EvaluationBudget)
    assert type(budget.fuel) is int and budget.fuel >= 0
    assert budget.deadline is None or 0 <= budget.deadline < float("inf")
    assert budget.max_intern_growth is None or (
        type(budget.max_intern_growth) is int and budget.max_intern_growth >= 0
    )
    assert wire.decode_budget(wire.encode_budget(budget)) == budget


def _worker_spans() -> list[dict]:
    """A shard worker's span records, as they cross the pipe: one chunk
    span holding an interpreted and a codegen evaluation and a point
    event."""
    from repro.rewriting import RewriteEngine

    tracer = Tracer()
    with tracing(tracer):
        with tracer.span("worker.chunk", pid=1, items=2):
            for backend in ("interpreted", "codegen"):
                RewriteEngine.for_specification(
                    QUEUE_SPEC, backend=backend
                ).normalize(App(FRONT, (queue_term(["a", "b"]),)))
            tracer.event("fallback", kind="codegen_depth")
    return json.loads(json.dumps(tracer.spans))


SPAN_PAYLOADS = [_worker_spans()]


def _decodes_to_a_valid_trace(payload) -> None:
    try:
        spans = wire.decode_spans(payload)
    except WireError:
        return
    tracer = Tracer()
    with tracer.span("serve.request"):
        with tracer.span("parallel.batch") as batch:
            tracer.merge_remote_spans(spans, parent=batch, pid=7)
    assert validate_otlp(to_otlp(tracer.spans, tracer.trace_id)) == []


def test_worker_spans_decode_unchanged():
    (payload,) = SPAN_PAYLOADS
    assert wire.decode_spans(copy.deepcopy(payload)) == payload
    _decodes_to_a_valid_trace(copy.deepcopy(payload))


@FUZZ
@given(mutated(SPAN_PAYLOADS))
def test_mutated_span_batch(payload):
    _decodes_to_a_valid_trace(payload)


@FUZZ
@given(JSON)
def test_any_json_span_batch(payload):
    _decodes_to_a_valid_trace(payload)
