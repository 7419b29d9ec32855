"""Tests for constraint systems and Theorem 1 normalization."""

import pytest
from hypothesis import given, settings

from repro.algebra.bitvec import BitVectorAlgebra
from repro.boolean.semantics import equivalent
from repro.boolean.syntax import FALSE, Var, conj
from repro.constraints.system import (
    ConstraintSystem,
    EquationalSystem,
    Negative,
    Positive,
    disjoint,
    empty,
    equal,
    nonempty,
    not_subset,
    overlaps,
    strict_subset,
    subset,
)
from tests.strategies import BITS8, bitvec_elements


class TestConstructors:
    def test_subset(self):
        c = subset("x", "y")
        assert isinstance(c, Positive)
        assert equivalent(c.as_zero_equation(), Var("x") & ~Var("y"))

    def test_not_subset(self):
        c = not_subset("x", "y")
        assert isinstance(c, Negative)
        assert equivalent(c.as_nonzero_formula(), Var("x") & ~Var("y"))

    def test_equal_is_two_inclusions(self):
        s = equal("x", "y")
        assert len(s.positives) == 2 and not s.negatives

    def test_strict_subset(self):
        s = strict_subset("x", "y")
        assert len(s.positives) == 1 and len(s.negatives) == 1

    def test_nonempty_empty_overlap_disjoint(self):
        assert isinstance(nonempty("x"), Negative)
        assert isinstance(empty("x"), Positive)
        assert equivalent(
            overlaps("x", "y").as_nonzero_formula(), Var("x") & Var("y")
        )
        assert equivalent(
            disjoint("x", "y").as_zero_equation(), Var("x") & Var("y")
        )

    def test_build_rejects_junk(self):
        with pytest.raises(TypeError):
            ConstraintSystem.build("not a constraint")

    def test_build_flattens_systems(self):
        s = ConstraintSystem.build(equal("x", "y"), nonempty("z"))
        assert len(s.positives) == 2 and len(s.negatives) == 1

    def test_conjoin(self):
        s = ConstraintSystem.build(subset("x", "y")).conjoin(
            ConstraintSystem.build(nonempty("z"))
        )
        assert len(s) == 2
        assert s.variables() == frozenset({"x", "y", "z"})


class TestSemantics:
    def setup_method(self):
        self.alg = BitVectorAlgebra(4)

    def test_positive_holds(self):
        c = subset("x", "y")
        assert c.holds(self.alg, {"x": 0b0010, "y": 0b0110})
        assert not c.holds(self.alg, {"x": 0b1010, "y": 0b0110})

    def test_negative_holds(self):
        c = not_subset("x", "y")
        assert c.holds(self.alg, {"x": 0b1010, "y": 0b0110})
        assert not c.holds(self.alg, {"x": 0b0010, "y": 0b0110})

    def test_system_holds(self):
        s = ConstraintSystem.build(subset("x", "y"), nonempty("x"))
        assert s.holds(self.alg, {"x": 0b0010, "y": 0b0110})
        assert not s.holds(self.alg, {"x": 0, "y": 0b0110})

    @given(bitvec_elements(), bitvec_elements())
    @settings(max_examples=60)
    def test_normalization_preserves_semantics(self, xv, yv):
        s = ConstraintSystem.build(
            subset("x", "y"), not_subset("y", "x"), overlaps("x", "y")
        )
        env = {"x": xv, "y": yv}
        assert s.holds(BITS8, env) == s.normalize().holds(BITS8, env)

    @given(bitvec_elements(), bitvec_elements(), bitvec_elements())
    @settings(max_examples=60)
    def test_normalization_merges_positives(self, xv, yv, zv):
        s = ConstraintSystem.build(
            subset("x", "y"), subset("y", "z"), subset(conj("x", "z"), "y")
        )
        env = {"x": xv, "y": yv, "z": zv}
        assert s.holds(BITS8, env) == s.normalize().holds(BITS8, env)


class TestEquationalSystem:
    def test_structure(self):
        es = EquationalSystem(Var("x") & ~Var("y"), [Var("z")])
        assert es.variables() == frozenset({"x", "y", "z"})
        assert not es.has_false_disequation()
        assert EquationalSystem(FALSE, [FALSE]).has_false_disequation()

    def test_str_rendering(self):
        es = EquationalSystem(Var("x"), [Var("y")])
        text = str(es)
        assert "= 0" in text and "!= 0" in text

    def test_subsumption_drops_weaker(self):
        # y&~C != 0 subsumes y != 0.
        y, c = Var("y"), Var("C")
        es = EquationalSystem(FALSE, [y, y & ~c])
        kept = es.subsume_disequations()
        assert kept.disequations == (y & ~c,)

    def test_subsumption_keeps_one_of_equals(self):
        y = Var("y")
        es = EquationalSystem(FALSE, [y, y])
        assert len(es.subsume_disequations().disequations) == 1

    def test_subsumption_keeps_incomparable(self):
        x, y = Var("x"), Var("y")
        es = EquationalSystem(FALSE, [x, y])
        assert len(es.subsume_disequations().disequations) == 2

    def test_simplified(self):
        x, y = Var("x"), Var("y")
        es = EquationalSystem((x & y) | (x & ~y), [(y & x) | (y & ~x)])
        simp = es.simplified()
        assert simp.equation == x
        assert simp.disequations == (y,)

    def test_equality_and_hash(self):
        a = EquationalSystem(Var("x"), [Var("y")])
        b = EquationalSystem(Var("x"), [Var("y")])
        assert a == b and hash(a) == hash(b)
