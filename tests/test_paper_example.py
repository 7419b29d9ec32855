"""Reproduction of the paper's Section 2 example, end to end (E1).

The paper derives, for the smugglers system of Figure 1 with constants
``C, A`` and retrieval order ``T, R, B``::

    (1)  0 ⊆ T ⊆ 1,           ¬C ∧ T ≠ 0
    (2)  0 ⊆ R ⊆ C ∨ T,       A ∧ R ≠ 0,  R ∧ T ≠ 0
    (3)  R ∧ ¬A ∧ ¬T ⊆ B ⊆ C

These tests assert our Algorithm 1 output is **semantically identical**
(and for the displayed simplification, syntactically equal after
rendering) to the paper's derivation, modulo the ground facts the paper
assumes (``A ⊆ C``).
"""

import pytest

from repro.algebra.regions import RegionAlgebra
from repro.boolean.semantics import equivalent, equivalent_under
from repro.boolean.syntax import FALSE, TRUE, Var, neg
from repro.boxes.box import Box
from repro.constraints.examples import SMUGGLERS_ORDER, smugglers_system
from repro.constraints.triangular import triangular_form

A, B, C, R, T = (Var(v) for v in "ABCRT")

#: The ground hypothesis under which the paper displays the triangle.
GROUND = neg(A & ~C)  # A ⊆ C


@pytest.fixture(scope="module")
def tri():
    return triangular_form(smugglers_system(), SMUGGLERS_ORDER)


@pytest.fixture(scope="module")
def tri_raw():
    """Without the display-time simplification modulo ground facts."""
    return triangular_form(
        smugglers_system(), SMUGGLERS_ORDER, simplify_modulo_ground=False
    )


class TestNormalization:
    def test_paper_rewriting(self):
        """Figure 1 rewrites to one equation and three disequations."""
        norm = smugglers_system().normalize()
        expected_eq = (A & ~C) | (B & ~C) | (R & ~A & ~B & ~T)
        assert equivalent(norm.equation, expected_eq)
        assert len(norm.disequations) == 3
        bodies = set()
        for g in norm.disequations:
            bodies.add(frozenset(g.variables()))
        assert bodies == {
            frozenset({"R", "A"}),
            frozenset({"R", "T"}),
            frozenset({"C", "T"}),
        }


class TestLevelT(object):
    def test_range_trivial(self, tri):
        c = tri.constraint_for("T")
        assert c.lower == FALSE
        assert c.upper == TRUE

    def test_single_disequation_not_c_and_t(self, tri):
        c = tri.constraint_for("T")
        assert len(c.disequations) == 1
        r = c.disequations[0]
        # r: T ∧ ¬C ≠ 0 (and no ¬T part).
        assert equivalent(r.p, ~C)
        assert equivalent(r.q, FALSE)


class TestLevelR:
    def test_range(self, tri):
        c = tri.constraint_for("R")
        assert c.lower == FALSE
        assert equivalent(c.upper, C | T)

    def test_range_without_ground_simplification(self, tri_raw):
        # Raw upper bound is C ∨ (¬A ∧ T); under A ⊆ C it equals C ∨ T.
        c = tri_raw.constraint_for("R")
        assert equivalent(c.upper, C | (~A & T))
        assert equivalent_under(GROUND, c.upper, C | T)

    def test_disequations(self, tri):
        c = tri.constraint_for("R")
        assert len(c.disequations) == 2
        for r in c.disequations:
            assert equivalent(r.q, FALSE)
        assert {frozenset(r.p.variables()) for r in c.disequations} == {
            frozenset({"A"}),
            frozenset({"T"}),
        }
        for r in c.disequations:
            if r.p.variables() == frozenset({"A"}):
                assert equivalent(r.p, A)
            else:
                assert equivalent(r.p, T)


class TestLevelB:
    def test_range_is_paper_line_3(self, tri):
        c = tri.constraint_for("B")
        assert equivalent(c.lower, R & ~A & ~T)
        assert equivalent(c.upper, C)

    def test_no_disequations(self, tri):
        assert tri.constraint_for("B").disequations == ()

    def test_raw_lower_bound_modulo_ground(self, tri_raw):
        c = tri_raw.constraint_for("B")
        assert equivalent(c.lower, (A & ~C) | (R & ~A & ~T))
        assert equivalent_under(GROUND, c.lower, R & ~A & ~T)


class TestGroundResidue:
    def test_ground_equation_is_A_subset_C(self, tri):
        assert equivalent(tri.ground.equation, A & ~C)

    def test_ground_disequations(self, tri):
        # Necessary conditions on the constants: A∩C ≠ ∅ (the road must
        # reach A inside C) and ¬C ≠ ∅ (there must be an outside for the
        # border town) — the latter computed as ¬A∧¬C, equal modulo A⊆C.
        bodies = [g for g in tri.ground.disequations]
        assert len(bodies) == 2
        for g in bodies:
            assert equivalent_under(GROUND, g, A & C) or equivalent_under(
                GROUND, g, ~C
            )

    def test_ground_accepts_paper_scenario(self, tri):
        alg = RegionAlgebra(Box((0.0, 0.0), (16.0, 16.0)))
        Cv = alg.box_region(Box((1.0, 1.0), (12.0, 12.0)))
        Av = alg.box_region(Box((8.0, 8.0), (11.0, 11.0)))
        assert tri.check_ground(alg, {"C": Cv, "A": Av})

    def test_ground_rejects_area_outside_country(self, tri):
        alg = RegionAlgebra(Box((0.0, 0.0), (16.0, 16.0)))
        Cv = alg.box_region(Box((1.0, 1.0), (12.0, 12.0)))
        Av = alg.box_region(Box((11.0, 11.0), (15.0, 15.0)))  # pokes out
        assert not tri.check_ground(alg, {"C": Cv, "A": Av})

    def test_ground_rejects_country_covering_universe(self, tri):
        # No outside => no border town can straddle the border.
        alg = RegionAlgebra(Box((0.0, 0.0), (16.0, 16.0)))
        Cv = alg.top
        Av = alg.box_region(Box((8.0, 8.0), (11.0, 11.0)))
        assert not tri.check_ground(alg, {"C": Cv, "A": Av})


class TestRenderMatchesPaperShape:
    def test_rendered_text(self, tri):
        text = tri.render()
        assert "0 <= T <= 1" in text
        assert "T & (~C) != 0" in text
        assert "0 <= R <= C | T" in text
        assert "R & (A) != 0" in text
        assert "R & (T) != 0" in text
        assert "R & ~A & ~T <= B <= C" in text


class TestEndToEndSolutions:
    """A concrete scenario: the triangle accepts exactly the paper's
    intended solutions."""

    def setup_method(self):
        self.alg = RegionAlgebra(Box((0.0, 0.0), (16.0, 16.0)))
        self.C = self.alg.box_region(Box((1.0, 1.0), (12.0, 12.0)))
        self.A = self.alg.box_region(Box((8.0, 8.0), (11.0, 11.0)))
        # A border town straddling the country boundary.
        self.town = self.alg.box_region(Box((0.5, 5.0), (1.5, 6.0)))
        # A road from the town into A (axis-aligned L shape).
        self.road = self.alg.region(
            [(1.0, 9.0), (5.0, 5.5)], [(8.5, 9.0), (5.0, 9.0)]
        )
        # A state containing the road's middle part.
        self.state = self.alg.box_region(Box((1.0, 1.0), (12.0, 12.0)))

    def _env(self, **kw):
        env = {"C": self.C, "A": self.A}
        env.update(kw)
        return env

    def test_scenario_satisfies_original_system(self):
        from repro.constraints.examples import smugglers_system

        env = self._env(T=self.town, R=self.road, B=self.state)
        assert smugglers_system().holds(self.alg, env)

    def test_triangle_accepts_solution_prefixes(self):
        tri = triangular_form(smugglers_system(), SMUGGLERS_ORDER)
        env = self._env(T=self.town, R=self.road, B=self.state)
        assert tri.check_ground(self.alg, env)
        assert tri.check_prefix(self.alg, env, upto=1)
        assert tri.check_prefix(self.alg, env, upto=2)
        assert tri.check_prefix(self.alg, env)

    def test_triangle_rejects_inland_town_immediately(self):
        """The point of the optimization: a town fully inside C dies at
        level 1, before any join work."""
        tri = triangular_form(smugglers_system(), SMUGGLERS_ORDER)
        inland = self.alg.box_region(Box((5.0, 5.0), (6.0, 6.0)))
        env = self._env(T=inland)
        assert not tri.check_prefix(self.alg, env, upto=1)

    def test_triangle_rejects_road_missing_town(self):
        tri = triangular_form(smugglers_system(), SMUGGLERS_ORDER)
        far_road = self.alg.box_region(Box((9.0, 9.0), (10.0, 10.0)))
        env = self._env(T=self.town, R=far_road)
        assert not tri.check_prefix(self.alg, env, upto=2)
