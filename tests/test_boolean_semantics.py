"""Tests for two-valued semantics, truth tables and parsing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.boolean.parser import parse
from repro.boolean.printer import to_str
from repro.boolean.semantics import (
    equivalent,
    equivalent_under,
    evaluate,
    implies,
    is_contradiction,
    truth_table_fast,
)
from repro.boolean.syntax import FALSE, TRUE, Var, conj, disj, neg, variables
from repro.boolean.bdd import Bdd
from repro.boolean.parser import MAX_DEPTH
from repro.errors import ParseError
from tests.strategies import B2, BITS8

# ---------------------------------------------------------------------------
# Random formula strategy shared across test modules
# ---------------------------------------------------------------------------

NAMES = ["x", "y", "z", "w", "v"]


def formulas(names=NAMES, max_leaves=8):
    """Hypothesis strategy producing random formulas over ``names``."""
    leaf = st.one_of(
        st.sampled_from([Var(n) for n in names]),
        st.sampled_from([TRUE, FALSE]),
    )

    def extend(children):
        return st.one_of(
            st.builds(lambda a: neg(a), children),
            st.builds(lambda a, b: conj(a, b), children, children),
            st.builds(lambda a, b: disj(a, b), children, children),
        )

    return st.recursive(leaf, extend, max_leaves=max_leaves)


def eval_bool(f, env):
    """Two-valued evaluation: :func:`evaluate` over B2."""
    return evaluate(f, B2, env)


class TestEvalBool:
    def test_basic_connectives(self):
        x, y = variables("x", "y")
        env = {"x": True, "y": False}
        assert eval_bool(x, env) is True
        assert eval_bool(y, env) is False
        assert eval_bool(x & y, env) is False
        assert eval_bool(x | y, env) is True
        assert eval_bool(~y, env) is True
        assert eval_bool(TRUE, {}) is True
        assert eval_bool(FALSE, {}) is False

    def test_unbound_variable_raises(self):
        with pytest.raises(KeyError):
            eval_bool(Var("q"), {})


class TestTruthTables:
    def test_var_pattern(self):
        x, y = variables("x", "y")
        # Order (x, y): assignments 00, 10, 01, 11 -> bits 0..3.
        assert truth_table_fast(x, ["x", "y"]) == 0b1010
        assert truth_table_fast(y, ["x", "y"]) == 0b1100
        assert truth_table_fast(x & y, ["x", "y"]) == 0b1000
        assert truth_table_fast(x | y, ["x", "y"]) == 0b1110

    def test_too_many_variables_guarded(self):
        f = conj(*[Var(f"v{i}") for i in range(30)])
        with pytest.raises(ValueError):
            truth_table_fast(f, [f"v{i}" for i in range(30)])

    @given(formulas())
    @settings(max_examples=150)
    def test_truth_table_matches_eval(self, f):
        order = sorted(f.variables()) or ["x"]
        tt = truth_table_fast(f, order)
        for i in range(1 << len(order)):
            env = {name: bool((i >> k) & 1) for k, name in enumerate(order)}
            assert bool((tt >> i) & 1) == eval_bool(f, env)


class TestJudgements:
    def setup_method(self):
        self.x, self.y, self.z = variables("x", "y", "z")

    def test_tautology(self):
        assert equivalent(self.x | ~self.x, TRUE)
        assert not equivalent(self.x, TRUE)
        assert equivalent(TRUE, TRUE)

    def test_contradiction(self):
        assert is_contradiction(self.x & ~self.x)
        assert is_contradiction(FALSE)
        assert not is_contradiction(self.x)

    def test_equivalent_distribution(self):
        lhs = self.x & (self.y | self.z)
        rhs = (self.x & self.y) | (self.x & self.z)
        assert equivalent(lhs, rhs)

    def test_equivalent_de_morgan(self):
        assert equivalent(~(self.x & self.y), ~self.x | ~self.y)

    def test_implies(self):
        assert implies(self.x & self.y, self.x)
        assert not implies(self.x, self.x & self.y)
        assert implies(FALSE, self.x)
        assert implies(self.x, TRUE)

    def test_equivalent_under_hypothesis(self):
        # Under A <= C, the bounds C | (~A & T) and C | T agree — the exact
        # simplification the paper applies in Section 2.
        A, C, T = variables("A", "C", "T")
        hyp = ~(A & ~C)  # A <= C as a formula identity
        assert equivalent_under(hyp, C | (~A & T), C | T)
        assert not equivalent(C | (~A & T), C | T)

    @given(formulas(), formulas())
    @settings(max_examples=100)
    def test_implies_is_conjunction_order(self, f, g):
        assert implies(f, g) == is_contradiction(f & ~g)


class TestParser:
    def test_precedence(self):
        x, y, z = variables("x", "y", "z")
        assert parse("x | y & z") == disj(x, conj(y, z))
        assert parse("~x & y") == conj(neg(x), y)
        assert parse("~(x & y)") == neg(conj(x, y))

    def test_constants(self):
        assert parse("0") == FALSE
        assert parse("1") == TRUE

    def test_whitespace_insensitive(self):
        assert parse(" x&y ") == parse("x & y")

    def test_error_position_reported(self):
        with pytest.raises(ParseError) as exc:
            parse("x & $")
        assert exc.value.position == 4

    def test_error_on_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("x y")

    def test_error_on_unclosed_paren(self):
        with pytest.raises(ParseError):
            parse("(x & y")

    def test_error_on_empty(self):
        with pytest.raises(ParseError):
            parse("")

    @given(formulas())
    @settings(max_examples=100)
    def test_round_trip(self, f):
        assert parse(to_str(f)) == f

    @pytest.mark.parametrize(
        "nested",
        [
            lambda n: "(" * n + "x" + ")" * n,
            lambda n: "~" * n + "x",
            lambda n: "~(x & " * (n // 2) + "y" + ")" * (n // 2),
            lambda n: "(x & (y | " * (n // 2) + "z" + "))" * (n // 2),
        ],
        ids=["parentheses", "complements", "complemented-conjunctions", "and-or"],
    )
    def test_nesting_cap(self, nested):
        """As deep as the parser goes, a formula lifts to a BDD, evaluates
        and prints back; deeper is a ParseError at the opener that
        crossed the cap, not a RecursionError."""
        f = parse(nested(MAX_DEPTH))
        Bdd().from_formula(f)
        evaluate(f, BITS8, {"x": 3, "y": 5, "z": 9})
        assert parse(to_str(f)) == f
        text = nested(MAX_DEPTH + 2)
        with pytest.raises(ParseError, match="nesting deeper") as exc:
            parse(text)
        opened = text[: exc.value.position]
        assert text[exc.value.position] in "(~"
        assert opened.count("(") + opened.count("~") == MAX_DEPTH
