"""Tests for bounding-box function ASTs (repro.boxes.functions)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.boxes.box import EMPTY_BOX, Box
from repro.boxes.functions import (
    BOT,
    TOP,
    BoxConst,
    BoxMeet,
    BoxVar,
    bjoin,
    bmeet,
    evaluate_boxfunc,
    naive_transform,
    render_boxfunc,
)
from tests.strategies import boxes

UNIVERSE = Box((0.0, 0.0), (16.0, 16.0))


def boxfuncs(names=("x", "y", "z"), max_leaves=6):
    """Random bounding-box functions over the given variables."""
    leaf = st.one_of(
        st.sampled_from([BoxVar(n) for n in names]),
        st.just(TOP),
        st.just(BOT),
    )

    def extend(children):
        return st.one_of(
            st.builds(lambda a, b: bmeet(a, b), children, children),
            st.builds(lambda a, b: bjoin(a, b), children, children),
        )

    return st.recursive(leaf, extend, max_leaves=max_leaves)


def env_strategy(names=("x", "y", "z")):
    return st.fixed_dictionaries({n: boxes() for n in names})


class TestSmartConstructors:
    def test_meet_identity(self):
        x = BoxVar("x")
        assert bmeet(x, TOP) == x
        assert bmeet(x, BOT) == BOT
        assert bmeet() == TOP

    def test_join_identity(self):
        x = BoxVar("x")
        assert bjoin(x, BOT) == x
        assert bjoin(x, TOP) == TOP
        assert bjoin() == BOT

    def test_flatten_and_dedup(self):
        x, y, z = BoxVar("x"), BoxVar("y"), BoxVar("z")
        f = bmeet(x, bmeet(y, z), x)
        assert isinstance(f, BoxMeet)
        assert len(f.args) == 3

    def test_commutative_canonical(self):
        x, y = BoxVar("x"), BoxVar("y")
        assert bmeet(x, y) == bmeet(y, x)
        assert bjoin(x, y) == bjoin(y, x)

    def test_empty_const_collapses_meet(self):
        assert bmeet(BoxVar("x"), BoxConst(EMPTY_BOX)) == BOT

    def test_variables(self):
        f = bjoin(BoxVar("x"), bmeet(BoxVar("y"), BoxVar("z")))
        assert f.variables() == frozenset({"x", "y", "z"})

    def test_var_name_validation(self):
        with pytest.raises(TypeError):
            BoxVar("")


class TestEvaluation:
    def test_var_lookup(self):
        b = Box((0, 0), (1, 1))
        assert evaluate_boxfunc(BoxVar("x"), {"x": b}) == b

    def test_top_resolution_with_universe(self):
        assert evaluate_boxfunc(TOP, {}, UNIVERSE) == UNIVERSE

    def test_top_resolution_without_universe(self):
        env = {"x": Box((0, 0), (2, 2)), "y": Box((4, 4), (6, 6))}
        assert evaluate_boxfunc(TOP, env) == Box((0, 0), (6, 6))

    def test_meet_join_semantics(self):
        a, b = Box((0, 0), (4, 4)), Box((2, 2), (6, 6))
        env = {"x": a, "y": b}
        f = bmeet(BoxVar("x"), BoxVar("y"))
        g = bjoin(BoxVar("x"), BoxVar("y"))
        assert evaluate_boxfunc(f, env) == a.meet(b)
        assert evaluate_boxfunc(g, env) == a.enclose(b)

    def test_callable_sugar(self):
        f = bmeet(BoxVar("x"), BoxVar("y"))
        env = {"x": Box((0, 0), (4, 4)), "y": Box((2, 2), (6, 6))}
        assert f(env) == Box((2, 2), (4, 4))

    @given(boxfuncs(), env_strategy(), env_strategy())
    @settings(max_examples=100)
    def test_monotonicity(self, f, env1, env2):
        """Every bounding-box function is monotone w.r.t. pointwise ⊑."""
        env_small = {n: env1[n].meet(env2[n]) for n in env1}
        env_big = {n: env1[n].enclose(env2[n]) for n in env1}
        lo = evaluate_boxfunc(f, env_small, UNIVERSE)
        assert lo.le(evaluate_boxfunc(f, env_big, UNIVERSE))


class TestRender:
    def test_render_shapes(self):
        f = bjoin(bmeet(BoxVar("x"), BoxVar("y")), BoxVar("z"))
        text = render_boxfunc(f)
        assert "[x]" in text and "^" in text and "v" in text
        assert render_boxfunc(TOP) == "TOP"
        assert render_boxfunc(BOT) == "EMPTY"


class TestNaiveTransform:
    def test_paper_representation_dependence(self):
        """(x∧y)∨(x∧z) and x∧(y∨z) denote the same Boolean function but
        different box functions under the naive transform (paper §4)."""
        from repro.boolean.syntax import variables

        x, y, z = variables("x", "y", "z")
        f1 = naive_transform((x & y) | (x & z))
        f2 = naive_transform(x & (y | z))
        # y and z are far apart; x sits in the gap: the meets are empty
        # but x is inside the enclosure of y and z.
        env = {
            "x": Box((0.0, 4.0), (1.0, 6.0)),
            "y": Box((0.0, 0.0), (1.0, 1.0)),
            "z": Box((0.0, 9.0), (1.0, 10.0)),
        }
        v1 = evaluate_boxfunc(f1, env, UNIVERSE)
        v2 = evaluate_boxfunc(f2, env, UNIVERSE)
        assert v1 != v2
        assert v1.le(v2)  # the SOP version is tighter here

    def test_negation_maps_to_top(self):
        from repro.boolean.syntax import variables

        (x,) = variables("x")
        assert naive_transform(~x) == TOP

    def test_constants(self):
        from repro.boolean.syntax import FALSE, TRUE

        assert naive_transform(TRUE) == TOP
        assert naive_transform(FALSE) == BOT
