"""Tests for the term wire format.

The contract under test: everything the encoder produces is plain
JSON-compatible data, decoding re-interns through the ordinary term
constructors (so a same-process round trip yields ``is``-identical
terms), shared substructure wires once, deep terms need no recursion
headroom, and anything that *cannot* cross a process boundary fails at
encode time with :class:`WireError`.
"""

from __future__ import annotations

import json

import pytest

from repro.adt.queue import ADD, FRONT, QUEUE_SPEC, new, queue_term
from repro.algebra.signature import Operation
from repro.algebra.sorts import Sort
from repro.algebra.terms import App, Err, Ite, Lit, Var
from repro.parallel import wire
from repro.parallel.wire import WireError
from repro.rewriting.rules import RuleSet
from repro.runtime import DIVERGED, EvaluationBudget, Outcome
from repro.spec.prelude import item


def _front_of(payloads) -> App:
    return App(FRONT, (queue_term(payloads),))


class TestTermRoundTrip:
    def test_same_process_round_trip_is_identical(self):
        term = _front_of(["a", "b"])
        decoded = wire.decode_term(wire.encode_term(term))
        # Decoding re-interns, and the encoder's source is still alive
        # in this process's table — so not merely equal: the same node.
        assert decoded is term

    def test_bool_literal_decodes_to_a_bool(self):
        sort = QUEUE_SPEC.type_of_interest
        held = Lit(1, sort)  # a live int literal must not answer for true
        payload = {
            "version": wire.WIRE_VERSION,
            "sorts": [[sort.name, []]],
            "ops": [],
            "nodes": [["l", True, 0], ["l", 1, 0]],
            "roots": [0, 1],
        }
        flag, one = wire.decode_terms(json.loads(json.dumps(payload)))
        assert flag.value is True
        assert one is held and type(one.value) is int

    def test_payload_survives_json(self):
        term = _front_of(["a", 1, "c"])
        payload = json.loads(json.dumps(wire.encode_term(term)))
        assert wire.decode_term(payload) is term

    def test_every_node_class_round_trips(self):
        queue_sort = QUEUE_SPEC.type_of_interest
        q = Var("q", queue_sort)
        is_empty = QUEUE_SPEC.operation("IS_EMPTY?")
        term = Ite(App(is_empty, (q,)), item("a"), item("b"))
        batch = [term, Err(queue_sort), Var("q2", queue_sort), new()]
        assert wire.decode_terms(wire.encode_terms(batch)) == batch

    def test_tuple_literal_round_trips(self):
        sort = Sort("Widget")
        term = Lit(("a", 1, ("nested", None)), sort)
        decoded = wire.decode_term(
            json.loads(json.dumps(wire.encode_term(term)))
        )
        assert decoded is term

    def test_deep_term_needs_no_recursion_headroom(self):
        # ~5000 nested ADDs: far beyond the default recursion limit if
        # either direction walked the term recursively.
        term = _front_of(range(5000))
        assert wire.decode_term(wire.encode_term(term)) is term

    def test_shared_substructure_wires_once(self):
        q = queue_term(["a", "b"])
        single = len(wire.encode_term(q)["nodes"])
        payload = wire.encode_terms([q, q, App(FRONT, (q,))])
        # The repeated root is one table entry; FRONT(q) adds one node.
        assert payload["roots"][0] == payload["roots"][1]
        assert len(payload["nodes"]) == single + 1


class TestTermRejections:
    def test_lambda_builtin_fails_at_encode_time(self):
        sort = Sort("Widget")
        op = Operation("OPAQUE", (sort,), sort, builtin=lambda x: x)
        with pytest.raises(WireError):
            wire.encode_term(App(op, (Err(sort),)))

    def test_unrepresentable_literal_fails_at_encode_time(self):
        with pytest.raises(WireError):
            wire.encode_term(Lit(object(), Sort("Widget")))

    def test_version_mismatch_is_rejected(self):
        payload = wire.encode_term(new())
        payload["version"] = wire.WIRE_VERSION + 1
        with pytest.raises(WireError):
            wire.decode_term(payload)

    def test_unresolvable_builtin_reference_is_rejected(self):
        payload = wire.encode_term(new())
        payload["ops"] = [
            {**op, "builtin": "no.such.module:missing"}
            for op in payload["ops"]
        ]
        with pytest.raises(WireError):
            wire.decode_term(payload)


class TestOutcomes:
    def test_outcome_batch_round_trips(self):
        ping = _front_of(["a"])
        outcomes = [
            Outcome(status="normalized", term=item("a")),
            Outcome(status="error_value", term=Err(QUEUE_SPEC.type_of_interest)),
            Outcome(
                status=DIVERGED,
                term=ping,
                reason="cycle",
                trace=(ping, _front_of(["b"])),
                detail="period-2 cycle",
            ),
            Outcome(status="truncated", term=None, reason="fault", detail="x"),
        ]
        payload = json.loads(json.dumps(wire.encode_outcomes(outcomes)))
        assert wire.decode_outcomes(payload) == outcomes


class TestRuleSetAndBudget:
    def test_ruleset_round_trip_preserves_fingerprint(self):
        rules = RuleSet.from_specification(QUEUE_SPEC)
        payload = json.loads(json.dumps(wire.encode_ruleset(rules)))
        decoded = wire.decode_ruleset(payload)
        assert len(decoded) == len(rules)
        # Fingerprint digests rule order, labels, both sides and the
        # mentioned operations — equality means the far side builds an
        # engine indistinguishable from ours.
        assert decoded.fingerprint() == rules.fingerprint()

    def test_module_level_builtins_survive_the_trip(self):
        from repro.spec.prelude import ISSAME, TRUE, identifier

        # ISSAME?'s evaluator is a module-level function, so it crosses
        # as a ``module:qualname`` reference and resolves to the same
        # object on the (here: same-process) far side.
        term = App(ISSAME, (identifier("x"), identifier("y")))
        payload = json.loads(json.dumps(wire.encode_term(term)))
        decoded = wire.decode_term(payload)
        assert decoded is term
        assert decoded.op.builtin is ISSAME.builtin
        assert ISSAME.builtin is not None
        assert TRUE.builtin is None or callable(TRUE.builtin)

    def test_budget_round_trips(self):
        budget = EvaluationBudget(fuel=77, deadline=1.5, max_intern_growth=1000)
        assert wire.decode_budget(wire.encode_budget(budget)) == budget
        assert wire.decode_budget(wire.encode_budget(None)) is None


# ----------------------------------------------------------------------
# The format is frozen at WIRE_VERSION 1: a payload an earlier encoder
# made must decode to the same terms, and today's encoder must still
# make it byte for byte.
# ----------------------------------------------------------------------
GOLDEN_V1 = {
    "version": 1,
    "sorts": [
        ["Item", []],
        ["Queue", []],
        ["Boolean", []],
        ["Identifier", []],
        ["Widget", []],
    ],
    "ops": [
        {"name": "NEW", "domain": [], "range": 1, "builtin": None},
        {"name": "ADD", "domain": [1, 0], "range": 1, "builtin": None},
        {"name": "FRONT", "domain": [1], "range": 0, "builtin": None},
        {"name": "IS_EMPTY?", "domain": [1], "range": 2, "builtin": None},
        {
            "name": "ISSAME?",
            "domain": [3, 3],
            "range": 2,
            "builtin": "repro.spec.prelude:_issame",
        },
    ],
    "nodes": [
        ["l", 2.5, 0],
        ["l", 1, 0],
        ["l", "a", 0],
        ["a", 0, []],
        ["a", 1, [3, 2]],
        ["a", 1, [4, 1]],
        ["a", 1, [5, 0]],
        ["a", 2, [6]],
        ["l", None, 0],
        ["v", "q", 1],
        ["a", 3, [9]],
        ["i", 10, 2, 8],
        ["l", "y", 3],
        ["l", "x", 3],
        ["a", 4, [13, 12]],
        ["e", 1],
        ["l", {"t": ["pair", 1, {"t": ["nested", True]}]}, 4],
    ],
    "roots": [7, 6, 11, 14, 15, 16],
}


def _golden_terms() -> list:
    from repro.spec.prelude import ISSAME, identifier

    queue = QUEUE_SPEC.type_of_interest
    is_empty = QUEUE_SPEC.operation("IS_EMPTY?")
    shared = queue_term(["a", 1, 2.5])
    return [
        App(FRONT, (shared,)),
        shared,
        Ite(App(is_empty, (Var("q", queue),)), item("a"), item(None)),
        App(ISSAME, (identifier("x"), identifier("y"))),
        Err(queue),
        Lit(("pair", 1, ("nested", True)), Sort("Widget")),
    ]


class TestGolden:
    def test_version_1_payload_decodes_to_the_same_terms(self):
        terms = _golden_terms()
        assert wire.decode_terms(json.loads(json.dumps(GOLDEN_V1))) == terms

    def test_encoder_still_makes_the_version_1_payload(self):
        assert wire.encode_terms(_golden_terms()) == GOLDEN_V1


def _payload(**changes) -> dict:
    payload = json.loads(json.dumps(GOLDEN_V1))
    payload.update(changes)
    return payload


def _with_node(index: int, row: list) -> dict:
    payload = _payload()
    payload["nodes"][index] = row
    return payload


class TestDecoderValidation:
    """Malformed tables raise WireError — never another exception, and
    never a different term."""

    @pytest.mark.parametrize(
        "payload",
        [
            _with_node(4, ["a", 1, [-2, 2]]),  # negative child
            _with_node(4, ["a", 1, [True, 2]]),  # a bool is not an index
            _with_node(4, ["a", 1, [3, 9]]),  # forward reference
            _with_node(4, ["a", 1, [3.0, 2]]),  # a float is not an index
            _with_node(4, ["a", -1, [3, 2]]),  # negative operation
            _with_node(4, ["a", 1, [3]]),  # wrong arity
            _with_node(4, ["a", 1, [3, 2], 0]),  # extra field
            _with_node(4, ["a", 1]),  # missing field
            _with_node(4, {"a": 1}),  # not a row
            _with_node(11, ["i", 10, 2, 11]),  # refers to itself
            _with_node(11, ["i", 2, 2, 8]),  # condition is not Boolean
            _with_node(0, ["l", ["x"], 0]),  # list literal
            _with_node(0, ["l", {"a": 1}, 0]),  # untagged dict literal
            _with_node(0, ["l", {"t": "abc"}, 0]),  # tuple of a string
            _with_node(0, ["l", 2.5, 9]),  # no such sort
            _with_node(9, ["v", 7, 1]),  # variable name not a string
            _with_node(15, ["e", True]),  # bool sort index
            _with_node(15, ["x", 1]),  # unknown tag
            _payload(roots=[-1]),
            _payload(roots=[True]),
            _payload(roots=[99]),
            _payload(roots="7"),
            _payload(sorts=[["Item", [0]]]),  # parameter refers to itself
            _payload(sorts=[["not a sort", []]]),
            _payload(ops=[{"name": "NEW", "domain": [], "range": 7,
                           "builtin": None}]),
            _payload(ops=[{"name": "NEW", "range": 1, "builtin": None}]),
            _payload(nodes=None),
            _payload(version=True),
        ],
    )
    def test_malformed_payload_is_a_wire_error(self, payload):
        with pytest.raises(WireError):
            wire.decode_terms(payload)

    @pytest.mark.parametrize("payload", [None, [], "x", 1])
    def test_non_dict_payload_is_a_wire_error(self, payload):
        with pytest.raises(WireError):
            wire.decode_terms(payload)

    def test_literal_nesting_is_bounded_both_ways(self):
        deep = "leaf"
        for _ in range(wire.MAX_LITERAL_DEPTH + 1):
            deep = (deep,)
        with pytest.raises(WireError):
            wire.encode_term(Lit(deep, Sort("Widget")))
        bomb: object = "leaf"
        for _ in range(100_000):
            bomb = {"t": [bomb]}
        with pytest.raises(WireError):
            wire.decode_terms(_with_node(0, ["l", bomb, 0]))

    def test_malformed_outcome_rows_are_wire_errors(self):
        good = wire.encode_outcomes([Outcome(status="normalized", term=new())])
        for change in (
            {"status": "fine"},
            {"term": -1},
            {"term": True},
            {"trace": [5]},
            {"reason": 3},
            {"detail": None},
        ):
            payload = json.loads(json.dumps(good))
            payload["outcomes"][0].update(change)
            with pytest.raises(WireError):
                wire.decode_outcomes(payload)


class TestOperationTable:
    def _table(self) -> wire.OperationTable:
        signature = QUEUE_SPEC.full_signature()
        return wire.OperationTable(signature.operations, signature.sorts)

    def test_declared_rows_decode_to_the_table_objects(self):
        (term,) = wire.decode_terms(
            wire.encode_terms([_front_of(["a"])]), self._table()
        )
        assert term.op is QUEUE_SPEC.operation("FRONT")
        assert term.args[0].op is QUEUE_SPEC.operation("ADD")

    def test_closed_table_refuses_what_it_does_not_declare(self):
        from repro.spec.prelude import ISSAME, identifier

        payload = wire.encode_term(App(ISSAME, (identifier("x"), identifier("y"))))
        with pytest.raises(WireError, match="not declared"):
            wire.decode_term(payload, self._table())

    def test_closed_table_refuses_another_builtin(self):
        payload = wire.encode_term(_front_of(["a"]))
        for row in payload["ops"]:
            row["builtin"] = "repro.spec.prelude:_issame"
        with pytest.raises(WireError, match="not declared"):
            wire.decode_term(payload, self._table())

    def test_open_table_learns_a_row_once(self):
        sort = Sort("Gadget")
        op = Operation("SPARE", (sort,), sort)
        payloads = [
            json.loads(json.dumps(wire.encode_term(App(op, (Lit(v, sort),)))))
            for v in ("a", "b")
        ]
        table = wire.OperationTable(imports=True)
        first, second = (wire.decode_term(p, table) for p in payloads)
        assert first.op is second.op
        assert first.op == op
