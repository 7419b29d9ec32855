"""Tests for the atomless decision procedure and witness construction.

The two directions of Theorems 7/8 are machine-checked end to end:

* ``satisfiable_atomless(S)`` ⟹ ``build_witness`` finds a model in the
  interval algebra (completeness of proj / constructive Independence);
* a model exists ⟹ ``satisfiable_atomless(S)`` (soundness).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.boolean.syntax import FALSE, TRUE, Var, neg
from repro.boxes.box import Box
from repro.constraints.decision import (
    entails_atomless,
    equivalent_atomless,
    satisfiable_atomless,
)
from repro.constraints.system import (
    ConstraintSystem,
    EquationalSystem,
    nonempty,
    not_subset,
    overlaps,
    subset,
)
from repro.constraints.witness import WitnessError, build_witness, disjoint_representatives
from tests.strategies import LINE, PLANE, interval_elements
from tests.test_boolean_semantics import formulas


class TestGroundHolds:
    """Variable-free systems: the decision procedure's base case."""

    def test_trivial_true(self):
        assert satisfiable_atomless(EquationalSystem(FALSE, [TRUE]))

    def test_failing_equation(self):
        assert not satisfiable_atomless(EquationalSystem(TRUE, []))

    def test_failing_disequation(self):
        assert not satisfiable_atomless(EquationalSystem(FALSE, [FALSE]))


class TestSatisfiability:
    def test_simple_sat(self):
        s = ConstraintSystem.build(subset("x", "y"), nonempty("x"))
        assert satisfiable_atomless(s)

    def test_simple_unsat(self):
        # x <= y, y <= x, x != y is unsatisfiable.
        from repro.constraints.system import equal

        s = ConstraintSystem.build(
            subset("x", "y"), subset("y", "x"), not_subset("x", "y")
        )
        assert not satisfiable_atomless(s)

    def test_empty_vs_nonempty(self):
        from repro.constraints.system import empty

        s = ConstraintSystem.build(empty("x"), nonempty("x"))
        assert not satisfiable_atomless(s)

    def test_example1_satisfiable_atomless(self):
        # x&y != 0 and ~x&y != 0: satisfiable over atomless algebras
        # (split y), even though unsatisfiable when y must be an atom.
        from repro.constraints.examples import nonclosure_example

        assert satisfiable_atomless(nonclosure_example())

    def test_three_way_split_needs_atomless(self):
        # Three pairwise-disjoint nonzero parts of y.
        x1, x2, y = Var("x1"), Var("x2"), Var("y")
        s = ConstraintSystem.build(
            overlaps(x1 & ~x2, y),
            overlaps(x2 & ~x1, y),
            overlaps(neg(x1 | x2), y),
        )
        assert satisfiable_atomless(s)

    def test_smugglers_satisfiable(self):
        from repro.constraints.examples import smugglers_system

        assert satisfiable_atomless(smugglers_system())


class TestEntailment:
    def test_subset_transitivity(self):
        s1 = ConstraintSystem.build(subset("x", "y"), subset("y", "z"))
        s2 = ConstraintSystem.build(subset("x", "z"))
        assert entails_atomless(s1, s2)
        assert not entails_atomless(s2, s1)

    def test_nonempty_propagates_up(self):
        s1 = ConstraintSystem.build(subset("x", "y"), nonempty("x"))
        s2 = ConstraintSystem.build(nonempty("y"))
        assert entails_atomless(s1, s2)

    def test_overlap_symmetric_equivalence(self):
        assert equivalent_atomless(
            ConstraintSystem.build(overlaps("x", "y")),
            ConstraintSystem.build(overlaps("y", "x")),
        )

    def test_disequation_entailment_needs_atomless_reasoning(self):
        # x&y != 0 entails y != 0 but not x = y.
        s1 = ConstraintSystem.build(overlaps("x", "y"))
        assert entails_atomless(s1, ConstraintSystem.build(nonempty("y")))
        from repro.constraints.system import equal

        assert not entails_atomless(s1, equal("x", "y"))

    def test_projection_is_entailed(self):
        """Theorem 9: S entails proj(S, x) for random systems."""
        from repro.constraints.projection import project

        x, y, z = Var("x"), Var("y"), Var("z")
        system = EquationalSystem((x & ~y) | (z & ~x), [x & z, y & ~z])
        projected = project(system, "x")
        assert entails_atomless(system, projected)


class TestDisjointRepresentatives:
    def test_basic(self):
        alg = LINE
        a = alg.interval(0, 8)
        b = alg.interval(4, 12)
        c = alg.interval(0, 16)
        pieces = disjoint_representatives(alg, [a, b, c])
        assert len(pieces) == 3
        for i, (p, base) in enumerate(zip(pieces, [a, b, c])):
            assert not alg.is_zero(p)
            assert alg.le(p, base)
            for q in pieces[i + 1 :]:
                assert alg.is_zero(alg.meet(p, q))

    def test_stealing_path(self):
        # All bases identical: later ones must steal from earlier pieces.
        alg = LINE
        base = alg.interval(0, 1)
        pieces = disjoint_representatives(alg, [base] * 5)
        assert len(pieces) == 5
        for i, p in enumerate(pieces):
            assert not alg.is_zero(p)
            assert alg.le(p, base)
            for q in pieces[i + 1 :]:
                assert alg.is_zero(alg.meet(p, q))

    def test_zero_base_rejected(self):
        with pytest.raises(WitnessError):
            disjoint_representatives(LINE, [LINE.bot])

    def test_non_atomless_rejected(self):
        from tests.strategies import BITS8

        with pytest.raises(WitnessError):
            disjoint_representatives(BITS8, [BITS8.top])

    @given(st.lists(interval_elements().filter(lambda s: not s.is_empty()), min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_random_bases(self, bases):
        pieces = disjoint_representatives(LINE, bases)
        for i, (p, base) in enumerate(zip(pieces, bases)):
            assert not LINE.is_zero(p)
            assert LINE.le(p, base)
            for q in pieces[i + 1 :]:
                assert LINE.is_zero(LINE.meet(p, q))


class TestBuildWitness:
    def test_smugglers_witness(self):
        from repro.constraints.examples import smugglers_system

        alg = PLANE
        # Bind the constants: a country with inside area.
        C = alg.box_region(Box((1.0, 1.0), (12.0, 12.0)))
        A = alg.box_region(Box((8.0, 8.0), (11.0, 11.0)))
        env = build_witness(
            smugglers_system(),
            alg,
            order=["T", "R", "B"],
            constants={"C": C, "A": A},
        )
        assert smugglers_system().holds(alg, env)

    def test_witness_fails_on_unsat(self):
        from repro.constraints.system import empty

        s = ConstraintSystem.build(empty("x"), nonempty("x"))
        with pytest.raises(WitnessError):
            build_witness(s, LINE)

    def test_witness_fails_on_bad_constants(self):
        # Constant constraint violated: A not inside C.
        s = ConstraintSystem.build(subset("A", "C"), nonempty("x"))
        A = LINE.interval(0, 8)
        C = LINE.interval(4, 6)
        with pytest.raises(WitnessError):
            build_witness(s, LINE, order=["x"], constants={"A": A, "C": C})

    @given(
        formulas(max_leaves=5),
        formulas(max_leaves=4),
        formulas(max_leaves=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_decision_witness_agreement(self, f, g1, g2):
        """The headline equivalence: symbolic satisfiability over atomless
        algebras coincides with constructibility of an interval model."""
        system = EquationalSystem(f, [g1, g2])
        sat = satisfiable_atomless(system)
        try:
            env = build_witness(system, LINE)
            built = True
        except WitnessError:
            built = False
        assert built == sat
        if built:
            assert system.holds(LINE, env)

    @given(formulas(max_leaves=5), formulas(max_leaves=4))
    @settings(max_examples=40, deadline=None)
    def test_witness_in_region_algebra(self, f, g):
        """Same over the 2-D region algebra."""
        system = EquationalSystem(f, [g])
        if not satisfiable_atomless(system):
            return
        env = build_witness(system, PLANE)
        assert system.holds(PLANE, env)
