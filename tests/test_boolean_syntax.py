"""Unit tests for the formula AST (repro.boolean.syntax)."""

import pytest

from repro.boolean.printer import to_str
from repro.boolean.syntax import (
    FALSE,
    TRUE,
    And,
    Const,
    Not,
    Var,
    conj,
    disj,
    formula,
    neg,
    variables,
)


class TestConstructors:
    def test_var_identity(self):
        assert Var("x") == Var("x")
        assert Var("x") != Var("y")
        assert hash(Var("x")) == hash(Var("x"))

    def test_var_requires_name(self):
        with pytest.raises(TypeError):
            Var("")
        with pytest.raises(TypeError):
            Var(3)

    def test_constants_are_singleton_like(self):
        assert TRUE == Const(True)
        assert FALSE == Const(False)
        assert TRUE != FALSE

    def test_formula_coercion(self):
        assert formula("x") == Var("x")
        assert formula(True) == TRUE
        assert formula(0) == FALSE
        assert formula(1) == TRUE
        f = Var("x") & Var("y")
        assert formula(f) is f

    def test_formula_coercion_rejects_junk(self):
        with pytest.raises(TypeError):
            formula(3.5)
        with pytest.raises(TypeError):
            formula([Var("x")])

    def test_variables_helper(self):
        x, y = variables("x", "y")
        assert x == Var("x") and y == Var("y")


class TestSmartSimplification:
    def setup_method(self):
        self.x, self.y, self.z = variables("x", "y", "z")

    def test_conj_identity_and_absorbing(self):
        assert conj(self.x, TRUE) == self.x
        assert conj(self.x, FALSE) == FALSE
        assert conj() == TRUE

    def test_disj_identity_and_absorbing(self):
        assert disj(self.x, FALSE) == self.x
        assert disj(self.x, TRUE) == TRUE
        assert disj() == FALSE

    def test_duplicates_removed(self):
        assert conj(self.x, self.x) == self.x
        assert disj(self.y, self.y) == self.y

    def test_complement_pairs_collapse(self):
        assert conj(self.x, neg(self.x)) == FALSE
        assert disj(self.x, neg(self.x)) == TRUE

    def test_flattening(self):
        f = conj(self.x, conj(self.y, self.z))
        assert isinstance(f, And)
        assert len(f.args) == 3

    def test_argument_order_is_canonical(self):
        assert conj(self.x, self.y) == conj(self.y, self.x)
        assert disj(self.x, self.y) == disj(self.y, self.x)

    def test_double_negation(self):
        assert neg(neg(self.x)) == self.x
        assert neg(TRUE) == FALSE
        assert neg(FALSE) == TRUE

    def test_not_never_wraps_not(self):
        f = neg(neg(neg(self.x)))
        assert isinstance(f, Not)
        assert isinstance(f.arg, Var)


class TestOperators:
    def setup_method(self):
        self.x, self.y = variables("x", "y")

    def test_and_or_invert(self):
        assert (self.x & self.y) == conj(self.x, self.y)
        assert (self.x | self.y) == disj(self.x, self.y)
        assert (~self.x) == neg(self.x)

    def test_implication_operator(self):
        assert (self.x >> self.y) == disj(neg(self.x), self.y)

    def test_xor_operator(self):
        f = self.x ^ self.y
        assert f == disj(
            conj(self.x, neg(self.y)), conj(neg(self.x), self.y)
        )

    def test_difference_operator(self):
        assert (self.x - self.y) == conj(self.x, neg(self.y))


class TestStructure:
    def setup_method(self):
        self.x, self.y, self.z = variables("x", "y", "z")

    def test_variables_collected(self):
        f = (self.x & ~self.y) | self.z
        assert f.variables() == frozenset({"x", "y", "z"})

    def test_mentions(self):
        f = self.x & self.y
        assert f.mentions("x")
        assert not f.mentions("z")

    def test_size_and_depth(self):
        f = self.x & (self.y | ~self.z)
        assert f.size() == 6  # And, x, Or, y, Not, z
        assert f.depth() == 4  # And > Or > Not > z

    def test_walk_yields_all_nodes(self):
        f = self.x & (self.y | ~self.z)
        nodes = list(f.walk())
        assert f in nodes
        assert Var("z") in nodes

    def test_immutability(self):
        with pytest.raises(AttributeError):
            self.x.name = "q"
        with pytest.raises(AttributeError):
            (self.x & self.y).args = ()


class TestSubstitution:
    def setup_method(self):
        self.x, self.y, self.z = variables("x", "y", "z")

    def test_substitute_variable(self):
        f = self.x & self.y
        assert f.substitute({"x": self.z}) == (self.z & self.y)

    def test_substitute_constant_propagates(self):
        f = self.x & self.y
        assert f.substitute({"x": TRUE}) == self.y
        assert f.substitute({"x": FALSE}) == FALSE

    def test_substitution_is_simultaneous(self):
        f = self.x & self.y
        swapped = f.substitute({"x": self.y, "y": self.x})
        assert swapped == f  # symmetric formula

    def test_cofactor(self):
        f = (self.x & self.y) | (~self.x & self.z)
        assert f.cofactor("x", True) == self.y
        assert f.cofactor("x", False) == self.z

    def test_cofactors_pair(self):
        f = (self.x & self.y) | (~self.x & self.z)
        lo, hi = f.cofactors("x")
        assert lo == self.z and hi == self.y


class TestPrinterRoundTrip:
    def test_simple(self):
        x, y, z = variables("x", "y", "z")
        from repro.boolean.parser import parse

        for f in [
            x,
            ~x,
            x & y,
            x | y,
            ~(x & y),
            (x | y) & z,
            x & (y | z),
            TRUE,
            FALSE,
            (x & ~y) | (~x & z),
        ]:
            assert parse(to_str(f)) == f
