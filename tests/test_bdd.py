"""Tests for the BDD engine and the simplifier built on it."""

import pytest
from hypothesis import given, settings

from repro.boolean.bdd import Bdd
from repro.boolean.semantics import equivalent, equivalent_under, implies
from repro.boolean.simplify import simplify, simplify_under
from repro.boolean.syntax import FALSE, TRUE, variables
from repro.boolean.terms import cover_to_formula
from tests.test_boolean_semantics import formulas


class TestConstruction:
    def test_terminals(self):
        mgr = Bdd()
        assert mgr.from_formula(TRUE) == mgr.true
        assert mgr.from_formula(FALSE) == mgr.false

    def test_canonicity(self):
        x, y, z = variables("x", "y", "z")
        mgr = Bdd(["x", "y", "z"])
        lhs = mgr.from_formula(x & (y | z))
        rhs = mgr.from_formula((x & y) | (x & z))
        assert lhs == rhs

    def test_negation_involution(self):
        x, y = variables("x", "y")
        mgr = Bdd(["x", "y"])
        u = mgr.from_formula(x & ~y)
        assert mgr.apply_not(mgr.apply_not(u)) == u

    @given(formulas(), formulas())
    @settings(max_examples=100, deadline=None)
    def test_equivalence_matches_truth_tables(self, f, g):
        mgr = Bdd(sorted(f.variables() | g.variables()))
        assert (mgr.from_formula(f) == mgr.from_formula(g)) == equivalent(f, g)

    @given(formulas(), formulas())
    @settings(max_examples=100, deadline=None)
    def test_implication_matches_truth_tables(self, f, g):
        mgr = Bdd(sorted(f.variables() | g.variables()))
        implied = mgr.apply_imp(mgr.from_formula(f), mgr.from_formula(g)) == mgr.true
        assert implied == implies(f, g)


class TestOperations:
    def setup_method(self):
        self.mgr = Bdd(["x", "y", "z"])
        self.x, self.y, self.z = variables("x", "y", "z")

    def test_restrict(self):
        f = (self.x & self.y) | (~self.x & self.z)
        u = self.mgr.from_formula(f)
        assert self.mgr.restrict(u, "x", True) == self.mgr.from_formula(self.y)
        assert self.mgr.restrict(u, "x", False) == self.mgr.from_formula(self.z)

    def test_exists_is_boole_elimination(self):
        # exists x. f  ==  f[x<-0] | f[x<-1]  (Theorem 2 in function form)
        f = (self.x & self.y) | (~self.x & self.z)
        u = self.mgr.from_formula(f)
        expected = self.mgr.from_formula(self.y | self.z)
        assert self.mgr.exists(u, ["x"]) == expected

    def test_forall(self):
        f = self.x | self.y
        u = self.mgr.from_formula(f)
        assert self.mgr.forall(u, ["x"]) == self.mgr.from_formula(self.y)

    def test_compose(self):
        f = self.x & self.y
        u = self.mgr.from_formula(f)
        composed = self.mgr.compose(u, "y", self.mgr.from_formula(self.z))
        assert composed == self.mgr.from_formula(self.x & self.z)

    def test_support(self):
        f = (self.x & self.y) | (self.x & ~self.y)  # == x
        u = self.mgr.from_formula(f)
        assert self.mgr.support(u) == ("x",)

    def test_sat_count(self):
        u = self.mgr.from_formula(self.x | self.y)
        assert self.mgr.sat_count(u, 3) == 6
        assert self.mgr.sat_count(self.mgr.true, 3) == 8
        assert self.mgr.sat_count(self.mgr.false, 3) == 0

    def test_pick_model(self):
        u = self.mgr.from_formula(self.x & ~self.y)
        model = self.mgr.pick_model(u)
        assert model["x"] is True and model["y"] is False
        assert self.mgr.pick_model(self.mgr.false) is None

    def test_iter_models(self):
        u = self.mgr.from_formula(self.x ^ self.y)
        models = list(self.mgr.iter_models(u))
        assert len(models) == 2
        for m in models:
            assert m["x"] != m["y"]


class TestConstrain:
    def test_agreement_on_care_set(self):
        x, y, z = variables("x", "y", "z")
        mgr = Bdd(["x", "y", "z"])
        f = mgr.from_formula((x & y) | z)
        care = mgr.from_formula(x)
        g = mgr.constrain(f, care)
        # g must agree with f wherever care holds.
        diff = mgr.apply_and(care, mgr.apply_xor(f, g))
        assert diff == mgr.false

    def test_rejects_empty_care(self):
        mgr = Bdd(["x"])
        with pytest.raises(ValueError):
            mgr.constrain(mgr.true, mgr.false)

    @given(formulas(max_leaves=6), formulas(max_leaves=6))
    @settings(max_examples=80, deadline=None)
    def test_constrain_agrees_on_care(self, f, c):
        names = sorted(f.variables() | c.variables())
        mgr = Bdd(names)
        cn = mgr.from_formula(c)
        if cn == mgr.false:
            return
        fn = mgr.from_formula(f)
        g = mgr.constrain(fn, cn)
        assert mgr.apply_and(cn, mgr.apply_xor(fn, g)) == mgr.false


class TestIsop:
    @given(formulas())
    @settings(max_examples=120, deadline=None)
    def test_isop_cover_denotes_f(self, f):
        mgr = Bdd(sorted(f.variables()))
        u = mgr.from_formula(f)
        cover = mgr.isop(u)
        assert equivalent(cover_to_formula(cover), f)

    @given(formulas())
    @settings(max_examples=80, deadline=None)
    def test_isop_terms_are_implicants(self, f):
        mgr = Bdd(sorted(f.variables()))
        for t in mgr.isop(mgr.from_formula(f)):
            assert implies(t.to_formula(), f)


class TestSimplify:
    def test_known_simplifications(self):
        x, y, z = variables("x", "y", "z")
        assert simplify((x & y) | (x & ~y)) == x
        assert simplify(x & (x | y)) == x
        assert simplify((x | y) & (x | ~y)) == x
        assert simplify(x & ~x) == FALSE
        assert simplify(x | ~x) == TRUE

    @given(formulas())
    @settings(max_examples=120, deadline=None)
    def test_simplify_preserves_function(self, f):
        assert equivalent(simplify(f), f)

    @given(formulas())
    @settings(max_examples=80, deadline=None)
    def test_simplify_never_grows_much(self, f):
        # ISOP covers are irredundant; the rebuilt formula should not be
        # dramatically larger than the input for these small formulas.
        assert simplify(f).size() <= 4 * f.size() + 4


class TestSimplifyUnder:
    def test_paper_section2_simplification(self):
        # Under the ground fact A <= C:  C | (~A & T)  simplifies to C | T.
        A, C, T = variables("A", "C", "T")
        care = ~(A & ~C)
        got = simplify_under(C | (~A & T), care)
        assert equivalent_under(care, got, C | T)
        assert got.size() <= (C | T).size()

    def test_unsatisfiable_care(self):
        x = variables("x")[0]
        assert simplify_under(x, x & ~x) == FALSE

    @given(formulas(max_leaves=6), formulas(max_leaves=6))
    @settings(max_examples=80, deadline=None)
    def test_agrees_on_care_set(self, f, care):
        got = simplify_under(f, care)
        assert equivalent_under(care, got, f)
