"""Tests for the constraint-system surface syntax."""

import pytest

from repro.boolean.semantics import equivalent
from repro.boolean.syntax import Var
from repro.boolean.parser import MAX_DEPTH
from repro.constraints.examples import SMUGGLERS_ORDER, smugglers_system
from repro.constraints.parser import parse_constraint, parse_system
from repro.constraints.triangular import triangular_form
from repro.errors import ParseError


class TestParseConstraint:
    def test_subset(self):
        s = parse_constraint("A <= C")
        assert len(s.positives) == 1 and not s.negatives
        c = s.positives[0]
        assert c.lhs == Var("A") and c.rhs == Var("C")

    def test_not_subset(self):
        s = parse_constraint("T !<= C")
        assert len(s.negatives) == 1 and not s.positives

    def test_nonempty(self):
        s = parse_constraint("R & A != 0")
        assert len(s.negatives) == 1
        assert equivalent(
            s.negatives[0].as_nonzero_formula(), Var("R") & Var("A")
        )

    def test_empty(self):
        s = parse_constraint("R & A = 0")
        assert len(s.positives) == 1
        assert equivalent(
            s.positives[0].as_zero_equation(), Var("R") & Var("A")
        )

    def test_equality_expands(self):
        s = parse_constraint("x = y")
        assert len(s.positives) == 2

    def test_strict_subset(self):
        s = parse_constraint("x < y")
        assert len(s.positives) == 1 and len(s.negatives) == 1

    def test_complex_formulas(self):
        s = parse_constraint("R <= A | B | T")
        assert equivalent(
            s.positives[0].rhs, Var("A") | Var("B") | Var("T")
        )

    def test_general_disequality_rejected(self):
        with pytest.raises(ParseError):
            parse_constraint("x != y")

    def test_empty_line_rejected(self):
        with pytest.raises(ParseError):
            parse_constraint("   ")

    def test_no_operator_rejected(self):
        with pytest.raises(ParseError):
            parse_constraint("x & y")


class TestParseSystem:
    FIGURE1 = """
        # the paper's Figure 1
        A <= C
        B <= C
        R <= A | B | T
        R & A != 0
        R & T != 0
        T !<= C
    """

    def test_figure1_matches_builtin(self):
        parsed = parse_system(self.FIGURE1)
        builtin = smugglers_system()
        assert parsed.normalize().simplified() == (
            builtin.normalize().simplified()
        )

    def test_figure1_triangularises_identically(self):
        parsed = parse_system(self.FIGURE1)
        t1 = triangular_form(parsed, SMUGGLERS_ORDER)
        t2 = triangular_form(smugglers_system(), SMUGGLERS_ORDER)
        assert t1.render() == t2.render()

    def test_semicolon_separated(self):
        s = parse_system("x <= y; y != 0")
        assert len(s.positives) == 1 and len(s.negatives) == 1

    def test_comments_and_blanks_ignored(self):
        s = parse_system("# comment\n\n x <= y \n")
        assert len(s) == 1

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse_system("# only a comment")

    def test_parenthesised_formulas(self):
        s = parse_system("(x | y) & ~z <= w")
        assert len(s.positives) == 1

    @pytest.mark.parametrize(
        "text",
        ["T <= " + "(" * 400 + "C" + ")" * 400, "~" * 2000 + "T != 0"],
        ids=["parentheses", "complements"],
    )
    def test_deep_nesting_is_a_parse_error(self, text):
        """Both used to raise RecursionError out of the formula parser."""
        with pytest.raises(ParseError, match="nesting deeper") as exc:
            parse_system(text)
        assert exc.value.position == MAX_DEPTH  # in the side that nests
