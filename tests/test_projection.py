"""Tests for ``proj`` — Theorems 2, 4, 5, 7, 8, 9 of the paper.

The key properties:

* soundness on EVERY carrier: if an assignment (with some value for x)
  satisfies S, then the x-free part satisfies proj(S, x);
* exactness on atomless carriers: if an assignment satisfies proj(S, x),
  a value for x can be constructed (choose_value) making S hold;
* non-exactness on atomic carriers (paper Example 1).
"""

from hypothesis import given, settings, strategies as st

from repro.algebra.bitvec import BitVectorAlgebra
from repro.algebra.intervals import IntervalAlgebra
from repro.boolean.semantics import equivalent
from repro.boolean.syntax import FALSE, Var
from repro.constraints.examples import nonclosure_example
from repro.constraints.projection import (
    eliminate_to_ground,
    exists_equation,
    project,
    project_disequation,
)
from repro.constraints.solved import solve_for
from repro.constraints.system import EquationalSystem
from repro.constraints.witness import choose_value
from tests.strategies import BITS8, LINE, bitvec_elements, interval_elements
from tests.test_boolean_semantics import formulas


class TestExistsEquation:
    """Theorem 2: positive systems are closed under ∃."""

    def test_boole_formula(self):
        x, y = Var("x"), Var("y")
        f = (x & ~y) | (~x & y)  # x != y as an equation
        assert equivalent(exists_equation(f, "x"), y & ~y | ~y & y)

    @given(formulas(), bitvec_elements(), bitvec_elements(), bitvec_elements())
    @settings(max_examples=80)
    def test_exists_semantics_bitvec(self, f, a, b, c):
        """∃x (f=0) holds iff f0&f1 = 0, checked by brute force over a
        small atomic algebra (Theorem 2 holds in EVERY Boolean algebra)."""
        alg = BitVectorAlgebra(3)
        names = sorted(f.variables())
        if "x" not in names:
            names = ["x"] + names
        values = [a & 7, b & 7, c & 7, (a ^ b) & 7, (b ^ c) & 7]
        others = [n for n in names if n != "x"]
        env = dict(zip(others, values[: len(others)]))
        from repro.boolean.semantics import evaluate

        eliminated = exists_equation(f, "x")
        lhs = alg.is_zero(evaluate(eliminated, alg, env))
        rhs = any(
            alg.is_zero(evaluate(f, alg, {**env, "x": xv}))
            for xv in alg.elements()
        )
        assert lhs == rhs


class TestProjectDisequation:
    def test_passthrough_when_x_absent(self):
        f = Var("x") & Var("y")
        g = Var("z")
        assert project_disequation(f, g, "x") == g

    def test_theorem4_shape(self):
        # S: f=0 ∧ g≠0 with f = x&~t | ~x&s, g = x&p | ~x&q
        s, t, p, q, x = (Var(v) for v in "stpqx")
        f = (x & ~t) | (~x & s)
        g = (x & p) | (~x & q)
        got = project_disequation(f, g, "x")
        assert equivalent(got, (t & p) | (~s & q))


def _random_system(draw_formulas):
    f, g1, g2 = draw_formulas
    return EquationalSystem(f, [g1, g2])


class TestSoundnessEverywhere:
    """Theorem 9 direction: ∃x S ⟹ proj(S, x), on any carrier."""

    @given(
        formulas(max_leaves=6),
        formulas(max_leaves=6),
        formulas(max_leaves=6),
        st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_bitvec_soundness(self, f, g1, g2, data):
        alg = BITS8
        system = EquationalSystem(f, [g1, g2])
        names = sorted(system.variables() | {"x"})
        env = {
            n: data.draw(bitvec_elements(), label=f"val[{n}]") for n in names
        }
        if not system.holds(alg, env):
            return
        projected = project(system, "x")
        env_wo_x = {n: v for n, v in env.items() if n != "x"}
        env_wo_x["x"] = 0  # proj must not mention x; value irrelevant
        assert "x" not in projected.variables()
        assert projected.holds(alg, env_wo_x)

    @given(
        formulas(max_leaves=5),
        formulas(max_leaves=5),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_interval_soundness(self, f, g1, data):
        alg = LINE
        system = EquationalSystem(f, [g1])
        names = sorted(system.variables() | {"x"})
        env = {
            n: data.draw(interval_elements(), label=f"val[{n}]")
            for n in names
        }
        if not system.holds(alg, env):
            return
        projected = project(system, "x")
        assert projected.holds(alg, env)


class TestExactnessAtomless:
    """Theorems 7/8: over atomless carriers proj is exact — a value for x
    can be constructed whenever the projected system holds."""

    @given(
        formulas(max_leaves=5),
        formulas(max_leaves=5),
        formulas(max_leaves=5),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_interval_completeness(self, f, g1, g2, data):
        alg = LINE
        system = EquationalSystem(f, [g1, g2])
        projected = project(system, "x")
        names = sorted(projected.variables() | system.variables() - {"x"})
        env = {
            n: data.draw(interval_elements(), label=f"val[{n}]")
            for n in names
        }
        if not projected.holds(alg, env):
            return
        solved, passed = solve_for(system, "x")
        value = choose_value(alg, solved, env)
        full_env = dict(env)
        full_env["x"] = value
        assert system.holds(alg, full_env), (
            f"prefix satisfies proj but chosen x fails:\n{system}\n"
            f"value={value!r}"
        )


class TestNonClosure:
    """Paper Example 1: proj is strictly weaker on atomic algebras."""

    def test_example1_projection_is_y_nonzero(self):
        norm = nonclosure_example().normalize()
        projected = project(norm, "x").subsume_disequations()
        assert projected.equation == FALSE
        assert projected.disequations == (Var("y"),)

    def test_example1_gap_on_two_valued(self):
        # In B2 (y an atom): proj holds with y=1, but no x satisfies S.
        from repro.algebra.boolean2 import TwoValuedAlgebra

        alg = TwoValuedAlgebra()
        norm = nonclosure_example().normalize()
        projected = project(norm, "x")
        assert projected.holds(alg, {"y": True, "x": False})
        assert not any(
            norm.holds(alg, {"y": True, "x": xv}) for xv in [False, True]
        )

    def test_example1_no_gap_on_atomless(self):
        # Over intervals any nonzero y splits, so S IS satisfiable.
        alg = IntervalAlgebra(0, 1)
        y = alg.interval(0, 1)
        lo, hi = alg.split(y)
        norm = nonclosure_example().normalize()
        assert norm.holds(alg, {"y": y, "x": lo})

    def test_example1_gap_requires_atom(self):
        # Over bitvectors: satisfiable iff y has >= 2 bits.
        alg = BitVectorAlgebra(4)
        norm = nonclosure_example().normalize()

        def sat_with(yv):
            return any(
                norm.holds(alg, {"y": yv, "x": xv}) for xv in alg.elements()
            )

        assert not sat_with(0b0001)  # atom: unsatisfiable
        assert sat_with(0b0011)  # two atoms: satisfiable


class TestEliminateToGround:
    def test_all_variables_removed(self):
        x, y = Var("x"), Var("y")
        system = EquationalSystem(x & ~y, [x & y])
        ground = eliminate_to_ground(system)
        assert ground.variables() == frozenset()

    def test_projection_chain_order_invariance_semantic(self):
        # Different elimination orders give equivalent ground systems.
        from repro.constraints.decision import satisfiable_atomless
        from repro.constraints.projection import project_all

        x, y, z = Var("x"), Var("y"), Var("z")
        system = EquationalSystem(x & ~y | y & ~z, [x & z, ~x & y])
        g1 = project_all(system, ["x", "y", "z"])
        g2 = project_all(system, ["z", "y", "x"])
        assert satisfiable_atomless(
            EquationalSystem(g1.equation, g1.disequations)
        ) == satisfiable_atomless(
            EquationalSystem(g2.equation, g2.disequations)
        )
