"""Tests for the solved form (Schröder/Boole) and Algorithm 1."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.boolean.semantics import evaluate
from repro.boolean.syntax import FALSE, TRUE, Var, disj
from repro.constraints.solved import SolvedConstraint, solve_for, solved_to_system
from repro.constraints.system import ConstraintSystem, EquationalSystem, nonempty, overlaps, subset
from repro.constraints.triangular import triangular_form, verify_necessity
from tests.strategies import BITS8, bitvec_elements
from tests.test_boolean_semantics import formulas


class TestSchroder:
    """Theorem 10: f = 0  ⟺  f[x←0] ⊆ x ⊆ ¬f[x←1]."""

    @given(formulas(max_leaves=6), st.data())
    @settings(max_examples=100)
    def test_schroder_equivalence_bitvec(self, f, data):
        alg = BITS8
        system = EquationalSystem(f, [])
        solved, passed = solve_for(system, "x")
        assert passed == []
        names = sorted(system.variables() | {"x"})
        env = {n: data.draw(bitvec_elements(), label=n) for n in names}
        lhs = system.holds(alg, env)
        rhs = solved.holds(alg, env["x"], env)
        assert lhs == rhs


class TestBooleExpansion:
    """Theorem 11: g ≠ 0 ⟺ x∧g[x←1] ≠ 0 ∨ ¬x∧g[x←0] ≠ 0."""

    @given(formulas(max_leaves=6), st.data())
    @settings(max_examples=100)
    def test_disequation_equivalence_bitvec(self, g, data):
        alg = BITS8
        system = EquationalSystem(FALSE, [g])
        solved, passed = solve_for(system, "x")
        names = sorted(system.variables() | {"x"})
        env = {n: data.draw(bitvec_elements(), label=n) for n in names}
        lhs = system.holds(alg, env)
        rhs = solved.holds(alg, env["x"], env) and all(
            not alg.is_zero(evaluate(h, alg, env)) for h in passed
        )
        assert lhs == rhs


class TestSolvedRoundTrip:
    @given(formulas(max_leaves=6), formulas(max_leaves=6))
    @settings(max_examples=80, deadline=None)
    def test_solved_to_system_equivalent(self, f, g):
        from repro.constraints.decision import entails_atomless

        system = EquationalSystem(f, [g] if g.mentions("x") else [g & Var("x") | g & ~Var("x")])
        solved, passed = solve_for(system, "x")
        rebuilt = solved_to_system(solved)
        merged = EquationalSystem(
            rebuilt.equation, list(rebuilt.disequations) + list(passed)
        )
        assert entails_atomless(system, merged)
        assert entails_atomless(merged, system)


class TestSolvedConstraintApi:
    def test_earlier_variables(self):
        c = SolvedConstraint(
            variable="x", lower=Var("a"), upper=Var("b") | Var("x")
        )
        assert c.earlier_variables() == frozenset({"a", "b"})

    def test_is_range_trivial(self):
        assert SolvedConstraint("x", FALSE, TRUE).is_range_trivial()
        assert not SolvedConstraint("x", Var("a"), TRUE).is_range_trivial()

    def test_render_mentions_parts(self):
        from repro.constraints.solved import Disequation

        c = SolvedConstraint(
            "x",
            Var("a"),
            Var("b"),
            (Disequation(Var("p"), FALSE), Disequation(FALSE, Var("q"))),
        )
        text = c.render()
        assert "a <= x <= b" in text
        assert "x & (p) != 0" in text
        assert "~x & (q) != 0" in text


class TestTriangularAlgorithm:
    def test_duplicate_order_rejected(self):
        s = ConstraintSystem.build(subset("x", "y"))
        with pytest.raises(ValueError):
            triangular_form(s, ["x", "x"])

    def test_each_level_mentions_only_prefix(self):
        s = ConstraintSystem.build(
            subset("x", "y"), overlaps("y", "z"), nonempty("x")
        )
        tri = triangular_form(s, ["x", "y", "z"])
        seen = set()
        for c in tri.constraints:
            assert c.earlier_variables() <= seen
            seen.add(c.variable)

    def test_ground_is_constant_free_system(self):
        s = ConstraintSystem.build(
            subset("x", "C"), overlaps("x", "D"), nonempty("y")
        )
        tri = triangular_form(s, ["x", "y"])
        assert tri.ground.variables() <= {"C", "D"}

    def test_constraint_for(self):
        s = ConstraintSystem.build(subset("x", "y"))
        tri = triangular_form(s, ["x", "y"])
        assert tri.constraint_for("x").variable == "x"
        with pytest.raises(KeyError):
            tri.constraint_for("q")

    @given(
        formulas(max_leaves=6),
        formulas(max_leaves=5),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_necessity_on_solutions(self, f, g, data):
        """Any full solution of S satisfies every C_i (Theorem 9 chained)."""
        alg = BITS8
        system = EquationalSystem(f, [g])
        names = sorted(system.variables())
        if not names:
            return
        env = {n: data.draw(bitvec_elements(), label=n) for n in names}
        if not system.holds(alg, env):
            return
        tri = triangular_form(
            system, names, simplify_modulo_ground=False
        )
        assert verify_necessity(tri, alg, env)

    @given(
        formulas(max_leaves=6),
        formulas(max_leaves=5),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_necessity_with_constants(self, f, g, data):
        """Holds too when some variables stay as bound constants."""
        alg = BITS8
        system = EquationalSystem(f, [g])
        names = sorted(system.variables())
        if len(names) < 2:
            return
        order, consts = names[:-1], names[-1:]
        env = {n: data.draw(bitvec_elements(), label=n) for n in names}
        if not system.holds(alg, env):
            return
        tri = triangular_form(system, order, simplify_modulo_ground=False)
        assert verify_necessity(tri, alg, env)

    def test_exactness_of_last_level(self):
        """C_n together with the lower levels is equivalent to S itself
        (the final rewriting loses nothing)."""
        from repro.constraints.decision import entails_atomless

        x, y = Var("x"), Var("y")
        system = EquationalSystem(x & ~y, [x & y])
        tri = triangular_form(system, ["x", "y"], simplify_modulo_ground=False)
        rebuilt_parts = []
        for c in tri.constraints:
            rb = solved_to_system(c)
            rebuilt_parts.append(rb)
        merged = EquationalSystem(
            disj(*[p.equation for p in rebuilt_parts]),
            [d for p in rebuilt_parts for d in p.disequations],
        )
        assert entails_atomless(system, merged)
        assert entails_atomless(merged, system)

    def test_render_contains_all_levels(self):
        s = ConstraintSystem.build(subset("x", "y"), nonempty("x"))
        tri = triangular_form(s, ["x", "y"])
        text = tri.render()
        assert "C[x]" in text and "C[y]" in text
