"""Tests for Algorithm 2 — best L/U bounding-box approximations.

Soundness is checked against the region algebra: for random regions
bound to the variables, ``L_f(⌈r⃗⌉) ⊑ ⌈f(r⃗)⌉ ⊑ U_f(⌈r⃗⌉)``.
Optimality is checked (a) on the paper's worked examples, (b) against
the naive syntactic transform (U_f must never be worse), and (c) against
alternative SOP covers (Theorem 17's representation independence).
"""

from hypothesis import given, settings, strategies as st

from repro.boolean.semantics import evaluate
from repro.boolean.syntax import FALSE, TRUE, variables
from repro.boolean.terms import formula_to_cover
from repro.boxes.approximation import (
    approximate,
    lower_approximation,
    term_upper,
    upper_approximation,
    upper_approximation_sop,
)
from repro.boxes.box import Box
from repro.boxes.functions import (
    BOT,
    TOP,
    BoxVar,
    bjoin,
    bmeet,
    evaluate_boxfunc,
    naive_transform,
    render_boxfunc,
)
from tests.strategies import PLANE, region_elements
from tests.test_boolean_semantics import formulas

UNIVERSE = PLANE.universe_box


def _region_env(data, names):
    return {
        n: data.draw(region_elements(), label=f"region[{n}]") for n in names
    }


class TestPaperExamples:
    def test_example_2_and_3(self):
        # f = x∧y ∨ ¬x∧(y ∨ z∧w):  L_f = ⌈y⌉,  U_f = ⌈y⌉ ⊔ (⌈z⌉⊓⌈w⌉).
        x, y, z, w = variables("x", "y", "z", "w")
        f = (x & y) | (~x & (y | (z & w)))
        ap = approximate(f)
        assert ap.lower == BoxVar("y")
        assert ap.upper == bjoin(BoxVar("y"), bmeet(BoxVar("z"), BoxVar("w")))

    def test_constants(self):
        assert lower_approximation(FALSE) == BOT
        assert upper_approximation(FALSE) == BOT
        assert lower_approximation(TRUE) == TOP
        assert upper_approximation(TRUE) == TOP

    def test_single_variable(self):
        (x,) = variables("x")
        assert lower_approximation(x) == BoxVar("x")
        assert upper_approximation(x) == BoxVar("x")

    def test_pure_negation(self):
        (x,) = variables("x")
        assert lower_approximation(~x) == BOT
        assert upper_approximation(~x) == TOP

    def test_conjunction(self):
        x, y = variables("x", "y")
        assert upper_approximation(x & y) == bmeet(BoxVar("x"), BoxVar("y"))
        # x∧y has no atom below it: L = EMPTY.
        assert lower_approximation(x & y) == BOT

    def test_disjunction_lower(self):
        x, y = variables("x", "y")
        assert lower_approximation(x | y) == bjoin(BoxVar("x"), BoxVar("y"))

    def test_hidden_atom_found_via_bcf(self):
        # f = (x∧y) ∨ (¬x∧y) == y: the naive SOP has no single-atom term,
        # but BCF reveals the atom y.
        x, y = variables("x", "y")
        f = (x & y) | (~x & y)
        assert lower_approximation(f) == BoxVar("y")
        assert upper_approximation(f) == BoxVar("y")

    def test_consensus_improves_upper(self):
        # f = x∧y ∨ ¬x∧z: BCF adds y∧z; U must absorb it (y∧z ⊑ ... no:
        # (⌈y⌉⊓⌈z⌉) is absorbed by neither, but IS redundant pointwise
        # below (⌈x⌉⊓⌈y⌉) ⊔ ... — check U is not WORSE than the SOP U.)
        x, y, z = variables("x", "y", "z")
        f = (x & y) | (~x & z)
        u_bcf = upper_approximation(f)
        u_sop = upper_approximation_sop(formula_to_cover(f))
        env = {
            "x": Box((0.0, 0.0), (4.0, 4.0)),
            "y": Box((2.0, 2.0), (6.0, 6.0)),
            "z": Box((8.0, 8.0), (9.0, 9.0)),
        }
        vb = evaluate_boxfunc(u_bcf, env, UNIVERSE)
        vs = evaluate_boxfunc(u_sop, env, UNIVERSE)
        assert vs.le(vb) or vb.le(vs)  # comparable on this instance


class TestSoundness:
    @given(formulas(max_leaves=6), st.data())
    @settings(max_examples=80, deadline=None)
    def test_lower_and_upper_bracket_the_box(self, f, data):
        names = sorted(f.variables())
        env = _region_env(data, names)
        value = evaluate(f, PLANE, env)
        fbox = value.bounding_box()
        box_env = {n: env[n].bounding_box() for n in names}
        lo = evaluate_boxfunc(lower_approximation(f), box_env, UNIVERSE)
        hi = evaluate_boxfunc(upper_approximation(f), box_env, UNIVERSE)
        assert lo.le(fbox), (
            f"L_f not below ⌈f⌉: {render_boxfunc(lower_approximation(f))}"
        )
        assert fbox.le(hi), (
            f"⌈f⌉ not below U_f: {render_boxfunc(upper_approximation(f))}"
        )

    @given(formulas(max_leaves=6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_upper_never_worse_than_naive(self, f, data):
        """U_f (Algorithm 2) ⊑ naive transform, pointwise."""
        names = sorted(f.variables())
        env = _region_env(data, names)
        box_env = {n: env[n].bounding_box() for n in names}
        u = evaluate_boxfunc(upper_approximation(f), box_env, UNIVERSE)
        n = evaluate_boxfunc(naive_transform(f), box_env, UNIVERSE)
        assert u.le(n)

    @given(formulas(max_leaves=6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_sop_route_also_sound(self, f, data):
        names = sorted(f.variables())
        env = _region_env(data, names)
        value = evaluate(f, PLANE, env)
        box_env = {n: env[n].bounding_box() for n in names}
        hi = evaluate_boxfunc(
            upper_approximation_sop(formula_to_cover(f)), box_env, UNIVERSE
        )
        assert value.bounding_box().le(hi)


class TestOptimality:
    def test_lower_is_tight_on_joins(self):
        """For f = x ∨ y the bound L_f = ⌈x⌉⊔⌈y⌉ is *achieved*."""
        x, y = variables("x", "y")
        rx = PLANE.box_region(Box((0.0, 0.0), (1.0, 1.0)))
        ry = PLANE.box_region(Box((4.0, 4.0), (5.0, 5.0)))
        env = {"x": rx, "y": ry}
        box_env = {n: env[n].bounding_box() for n in env}
        lo = evaluate_boxfunc(lower_approximation(x | y), box_env, UNIVERSE)
        assert lo == evaluate(x | y, PLANE, env).bounding_box()

    def test_upper_is_tight_on_meets_of_boxes(self):
        """For box-shaped regions, ⌈x∧y⌉ = ⌈x⌉⊓⌈y⌉ exactly."""
        x, y = variables("x", "y")
        rx = PLANE.box_region(Box((0.0, 0.0), (4.0, 4.0)))
        ry = PLANE.box_region(Box((2.0, 2.0), (6.0, 6.0)))
        env = {"x": rx, "y": ry}
        box_env = {n: env[n].bounding_box() for n in env}
        hi = evaluate_boxfunc(upper_approximation(x & y), box_env, UNIVERSE)
        assert hi == evaluate(x & y, PLANE, env).bounding_box()

    def test_lower_dominates_any_atom_below_f(self):
        """Theorem 15's shape: every atom x ≤ f contributes ⌈x⌉ ≤ L_f."""

        x, y, z = variables("x", "y", "z")
        f = y | (x & z) | (x & ~z)  # == y | x; atoms below: x, y
        lf = lower_approximation(f)
        assert lf == bjoin(BoxVar("x"), BoxVar("y"))

    def test_absorption_inside_upper(self):
        # U of y ∨ (y∧z) must be just ⌈y⌉ (the meet is absorbed).
        y, z = variables("y", "z")
        assert upper_approximation(y | (y & z)) == BoxVar("y")


class TestTermUpper:
    def test_positive_term(self):
        from tests.test_terms_blake import term

        assert term_upper(term("x", "y")) == bmeet(BoxVar("x"), BoxVar("y"))

    def test_negative_literals_dropped(self):
        from tests.test_terms_blake import term

        assert term_upper(term("x", "~y")) == BoxVar("x")

    def test_all_negative_term_is_top(self):
        from tests.test_terms_blake import term

        assert term_upper(term("~x", "~y")) == TOP
