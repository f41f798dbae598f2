"""Unit tests for the specification DSL parser."""

import pytest

from repro.algebra.sorts import Sort
from repro.algebra.terms import App, Err, Ite, Lit, Var
from repro.spec.parser import (
    ParseError,
    parse_specification,
    parse_specifications,
)

MINIMAL = """
type Flag
uses Boolean
operations
  UP:    -> Flag
  FLIP:  Flag -> Flag
  IS_UP?: Flag -> Boolean
vars
  f: Flag
axioms
  (F1) IS_UP?(UP) = true
  (F2) IS_UP?(FLIP(f)) = not(IS_UP?(f))
"""


class TestBasicParsing:
    def test_parses_name_and_toi(self):
        spec = parse_specification(MINIMAL)
        assert spec.name == "Flag"
        assert spec.type_of_interest == Sort("Flag")

    def test_operations_declared(self):
        spec = parse_specification(MINIMAL)
        flip = spec.operation("FLIP")
        assert flip.domain == (Sort("Flag"),)
        assert flip.range == Sort("Flag")

    def test_axiom_labels(self):
        spec = parse_specification(MINIMAL)
        assert [a.label for a in spec.axioms] == ["F1", "F2"]

    def test_uses_resolved_from_prelude(self):
        spec = parse_specification(MINIMAL)
        assert spec.full_signature().has_operation("not")

    def test_parameter_sorts(self):
        source = """
        type Box [Item]
        operations
          WRAP: Item -> Box
        """
        spec = parse_specification(source)
        assert spec.parameter_sorts == (Sort("Item"),)

    def test_domain_accepts_x_separator_and_commas(self):
        source = """
        type P
        uses Boolean
        operations
          F: P x P -> Boolean
          G: P, P -> Boolean
          H: P P -> Boolean
          MKP: -> P
        """
        spec = parse_specification(source)
        for name in ("F", "G", "H"):
            assert spec.operation(name).arity == 2

    def test_numeric_axiom_labels(self):
        source = MINIMAL.replace("(F1)", "(1)").replace("(F2)", "(2)")
        spec = parse_specification(source)
        assert [a.label for a in spec.axioms] == ["1", "2"]

    def test_multi_variable_declaration(self):
        source = """
        type D
        uses Boolean, Identifier
        operations
          MKD: -> D
          EQ?: Identifier x Identifier -> Boolean
        vars
          a, b: Identifier
        axioms
          EQ?(a, b) = ISSAME?(a, b)
        """
        spec = parse_specification(source)
        assert {v.name for v in spec.axioms[0].variables()} == {"a", "b"}


class TestTermForms:
    def test_error_takes_context_sort(self):
        source = """
        type T
        operations
          MKT: -> T
          SHRINK: T -> T
        vars
          t: T
        axioms
          SHRINK(MKT) = error
        """
        spec = parse_specification(source)
        rhs = spec.axioms[0].rhs
        assert isinstance(rhs, Err) and rhs.sort == Sort("T")

    def test_if_then_else(self):
        spec = parse_specification(MINIMAL)
        # F2's RHS is not an Ite, so parse one explicitly:
        source = """
        type T
        uses Boolean
        operations
          MKT: -> T
          OTHER: -> T
          PICK: T -> T
          GOOD?: T -> Boolean
        vars
          t: T
        axioms
          PICK(t) = if GOOD?(t) then MKT else OTHER
        """
        axiom = parse_specification(source).axioms[0]
        assert isinstance(axiom.rhs, Ite)

    def test_string_literal_leaf(self):
        source = """
        type T
        uses Identifier, Boolean
        operations
          MKT: -> T
          TAG?: T -> Boolean
        vars
          t: T
        axioms
          TAG?(t) = ISSAME?('a', 'a')
        """
        axiom = parse_specification(source).axioms[0]
        issame = axiom.rhs
        assert isinstance(issame, App)
        assert issame.args[0] == Lit("a", Sort("Identifier"))

    def test_int_literal_leaf(self):
        source = """
        type T
        uses Nat, Boolean
        operations
          MKT: -> T
          LEVEL: T -> Nat
        vars
          t: T
        axioms
          LEVEL(t) = 3
        """
        axiom = parse_specification(source).axioms[0]
        assert axiom.rhs == Lit(3, Sort("Nat"))

    def test_nullary_op_without_parens(self):
        spec = parse_specification(MINIMAL)
        f1 = spec.axioms[0]
        up = f1.lhs.children()[0]
        assert isinstance(up, App) and up.op.name == "UP"


class TestErrors:
    def test_unknown_used_spec(self):
        with pytest.raises(ParseError, match="unknown specification"):
            parse_specification("type T\nuses Zorp\n")

    def test_unknown_sort_in_domain(self):
        source = """
        type T
        operations
          F: Zorp -> T
        """
        with pytest.raises(ParseError, match="unknown sort"):
            parse_specification(source)

    def test_unknown_operation_in_axiom(self):
        source = """
        type T
        operations
          MKT: -> T
        axioms
          ZAP(MKT) = MKT
        """
        with pytest.raises(ParseError, match="unknown"):
            parse_specification(source)

    def test_arity_mismatch_detected(self):
        source = """
        type T
        operations
          MKT: -> T
          F: T T -> T
        vars
          t: T
        axioms
          F(t) = t
        """
        with pytest.raises(ParseError):
            parse_specification(source)

    def test_error_on_lhs_alone_rejected(self):
        source = """
        type T
        operations
          MKT: -> T
        axioms
          error = MKT
        """
        with pytest.raises(ParseError):
            parse_specification(source)

    def test_undeclared_variable_rejected(self):
        source = """
        type T
        operations
          MKT: -> T
          SHRINK: T -> T
        axioms
          SHRINK(t) = t
        """
        with pytest.raises(ParseError, match="unknown name"):
            parse_specification(source)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_specification(MINIMAL + "\nbogus trailing ( tokens")


class TestDeclaredErrorsOnly:
    """Sort, signature and number problems in the text surface as a
    ParseError that names the line, not as the library's own errors."""

    def test_invalid_type_name(self):
        with pytest.raises(ParseError, match="invalid sort name.*line 2"):
            parse_specification("\ntype a..b\n")

    def test_invalid_parameter_sort_name(self):
        with pytest.raises(ParseError, match="line 1, column 9"):
            parse_specification("type T [a..b]\n")

    def test_non_ascii_digit_literal(self):
        source = MINIMAL + "  (F3) IS_UP?(UP) = \u00b2\n"
        with pytest.raises(ParseError, match="line 13"):
            parse_specification(source)

    def test_non_boolean_condition(self):
        source = """type T
        operations
          MKT: -> T
          F: T -> T
        vars
          t: T
        axioms
          F(t) = if t then t else MKT
        """
        with pytest.raises(ParseError, match="Boolean.*line 8"):
            parse_specification(source)

    def test_argument_of_the_wrong_sort(self):
        source = """type T
        uses Boolean
        operations
          MKT: -> T
          F: T -> T
        vars
          t: T
        axioms
          F(true) = t
        """
        with pytest.raises(ParseError, match="line 9"):
            parse_specification(source)

    def test_operation_redeclared_with_another_profile(self):
        source = """type T
        operations
          MKT: -> T
          MKT: T -> T
        """
        with pytest.raises(ParseError, match="declared twice.*line 4"):
            parse_specification(source)


class TestMultipleSpecs:
    def test_later_specs_may_use_earlier(self):
        source = """
        type A
        operations
          MKA: -> A

        type B
        uses A
        operations
          WRAP: A -> B
        """
        specs = parse_specifications(source)
        assert [s.name for s in specs] == ["A", "B"]
        assert specs[1].full_signature().has_operation("MKA")

    def test_custom_environment(self):
        base = parse_specification("type A\noperations\n  MKA: -> A\n")
        spec = parse_specification(
            "type B\nuses A\noperations\n  WRAP: A -> B\n",
            environment={"A": base},
        )
        assert spec.full_signature().has_operation("MKA")


class TestPaperSpecsRoundtrip:
    """The paper's own specifications parse to the expected shapes."""

    def test_queue_has_six_axioms(self, queue_spec):
        assert len(queue_spec.axioms) == 6

    def test_stack_has_seven_axioms(self, stack_spec):
        assert len(stack_spec.axioms) == 7

    def test_array_has_four_axioms(self, array_spec):
        assert len(array_spec.axioms) == 4

    def test_symboltable_has_nine_axioms(self, symboltable_spec):
        assert len(symboltable_spec.axioms) == 9
        assert [a.label for a in symboltable_spec.axioms] == [
            str(i) for i in range(1, 10)
        ]
