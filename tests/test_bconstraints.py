"""Tests for BoxQuery / StepTemplate and the solved-form conversion."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra.regions import Region
from repro.boolean.syntax import FALSE, TRUE, Var
from repro.boxes.bconstraints import (
    BoxQuery, StepTemplate, box_decided, compile_solved_constraint,
)
from repro.boxes.box import EMPTY_BOX, Box
from repro.boxes.functions import BOT, TOP, BoxVar, bjoin
from repro.constraints.examples import SMUGGLERS_ORDER, smugglers_system
from repro.constraints.solved import Disequation, SolvedConstraint
from repro.constraints.triangular import triangular_form
from tests.strategies import PLANE, boxes, nonempty_boxes

UNIVERSE = PLANE.universe_box


class TestBoxQuery:
    def test_inside(self):
        q = BoxQuery(inside=Box((0, 0), (4, 4)))
        assert q.matches(Box((1, 1), (2, 2)))
        assert not q.matches(Box((1, 1), (5, 5)))

    def test_covers(self):
        q = BoxQuery(covers=Box((1, 1), (2, 2)))
        assert q.matches(Box((0, 0), (4, 4)))
        assert not q.matches(Box((1.5, 1.5), (4, 4)))

    def test_overlap(self):
        q = BoxQuery(overlap=(Box((0, 0), (1, 1)), Box((2, 2), (3, 3))))
        assert q.matches(Box((0.5, 0.5), (2.5, 2.5)))
        assert not q.matches(Box((0.5, 0.5), (1.5, 1.5)))

    def test_unsatisfiable_empty_overlap(self):
        q = BoxQuery(overlap=(EMPTY_BOX,))
        assert q.is_unsatisfiable()

    def test_unsatisfiable_covers_not_in_inside(self):
        q = BoxQuery(inside=Box((0, 0), (1, 1)), covers=Box((2, 2), (3, 3)))
        assert q.is_unsatisfiable()

    def test_satisfiable_plain(self):
        q = BoxQuery(inside=Box((0, 0), (4, 4)), covers=Box((1, 1), (2, 2)))
        assert not q.is_unsatisfiable()

    def test_render(self):
        q = BoxQuery(inside=Box((0, 0), (4, 4)), overlap=(Box((1, 1), (2, 2)),))
        text = q.render()
        assert "<=" in text and "!= empty" in text
        assert BoxQuery().render() == "true"

    @given(boxes(), nonempty_boxes(), nonempty_boxes())
    @settings(max_examples=80)
    def test_matches_is_conjunction(self, target, inside, overlap):
        q = BoxQuery(inside=inside, overlap=(overlap,))
        expected = target.le(inside) and target.overlaps(overlap)
        assert q.matches(target) == expected


class TestStepTemplate:
    def test_instantiate_range(self):
        t = StepTemplate(
            variable="x",
            lower=BoxVar("a"),
            upper=bjoin(BoxVar("a"), BoxVar("b")),
        )
        env = {"a": Box((1, 1), (2, 2)), "b": Box((4, 4), (5, 5))}
        q = t.instantiate(env, UNIVERSE)
        assert q.covers == Box((1, 1), (2, 2))
        assert q.inside == Box((1, 1), (5, 5))

    def test_overlap_emitted_only_when_q_empty(self):
        from repro.boxes.bconstraints import OverlapTemplate

        t = StepTemplate(
            variable="x",
            lower=BOT,
            upper=TOP,
            overlaps=(
                OverlapTemplate(p_upper=BoxVar("p"), q_upper=BoxVar("q")),
            ),
        )
        env_q_empty = {"p": Box((0, 0), (1, 1)), "q": EMPTY_BOX}
        env_q_full = {"p": Box((0, 0), (1, 1)), "q": Box((2, 2), (3, 3))}
        q1 = t.instantiate(env_q_empty, UNIVERSE)
        q2 = t.instantiate(env_q_full, UNIVERSE)
        assert q1.overlap == (Box((0, 0), (1, 1)),)
        assert q2.overlap == ()  # "the trivial constraint true otherwise"

    def test_render(self):
        t = StepTemplate(variable="x", lower=BOT, upper=BoxVar("c"))
        assert "[x]" in t.render()

    def test_compile_rejects_non_solved(self):
        with pytest.raises(TypeError):
            compile_solved_constraint("nope")


A, B = Var("A"), Var("B")

#: One case per conjunct shape: the constraint on ``x``, the slot of the
#: conjunct under test (``s ⊆ x``, ``x ⊆ t``, then each ``r_j``) and its
#: mark — the atoms that must be one box, or ``None`` for "checked".
MARK_CASES = {
    "s-join-of-atoms": (SolvedConstraint("x", A | B, TRUE), 0, frozenset()),
    "s-one": (SolvedConstraint("x", TRUE, TRUE), 0, frozenset()),
    "s-mixed-sign-term": (SolvedConstraint("x", A & ~B, TRUE), 0, None),
    "s-complement": (SolvedConstraint("x", ~A, TRUE), 0, None),
    "t-one-term": (SolvedConstraint("x", FALSE, A & B), 1, frozenset("AB")),
    "t-one": (SolvedConstraint("x", FALSE, TRUE), 1, frozenset()),
    "t-union": (SolvedConstraint("x", FALSE, A | B), 1, None),
    "t-complement": (SolvedConstraint("x", FALSE, ~A), 1, None),
    "p-one-term": (SolvedConstraint("x", FALSE, TRUE, (Disequation(A & B, FALSE),)), 2,
                   frozenset("AB")),
    "p-one": (SolvedConstraint("x", FALSE, TRUE, (Disequation(TRUE, FALSE),)), 2, frozenset()),
    "p-union": (SolvedConstraint("x", FALSE, TRUE, (Disequation(A | B, FALSE),)), 2, None),
    "p-complement": (SolvedConstraint("x", FALSE, TRUE, (Disequation(A & ~B, FALSE),)), 2,
                     None),
    "q-nonzero": (SolvedConstraint("x", FALSE, TRUE, (Disequation(A, B),)), 2, None),
}


def _grid_region(rng, n_boxes):
    """``n_boxes`` boxes on a half-unit grid of the plane: shared edges
    are common, and overlapping boxes make a region of several."""
    boxes = []
    for _ in range(n_boxes):
        lo = (rng.randrange(0, 28) / 2, rng.randrange(0, 28) / 2)
        size = (rng.randrange(1, 14) / 2, rng.randrange(1, 14) / 2)
        boxes.append(Box(lo, (lo[0] + size[0], lo[1] + size[1])).meet(UNIVERSE))
    return Region.from_boxes(boxes)


class TestBoxDecided:
    """The conjuncts a step's range query decides (:func:`box_decided`)
    and the step filter that skips them: over values that matched the
    range query, the survivors are the unmarked filter's."""

    @pytest.mark.parametrize("case", sorted(MARK_CASES))
    def test_mark_and_survivors(self, case):
        solved, slot, mark = MARK_CASES[case]
        template = compile_solved_constraint(solved)
        marks = box_decided(solved)
        assert len(marks) == 2 + len(solved.disequations)
        assert marks[slot] == mark
        # The conjunct under test marked alone, then every mark.
        alone = tuple(m if k == slot else None for k, m in enumerate(marks))
        rng = random.Random(case)
        saved = 0
        for trial in range(24):
            # One-box and multi-box atoms (both one box every 4th trial);
            # one-box, multi-box, empty and universe-wide candidates.
            env = {name: _grid_region(rng, 1 + (trial >> k) % 2) for k, name in enumerate("AB")}
            query = template.instantiate(
                {name: r.bounding_box() for name, r in env.items()}, UNIVERSE
            )
            values = [_grid_region(rng, rng.choice((0, 1, 1, 1, 2))) for _ in range(40)]
            # and the query's own boxes, which pass it more often, each alone
            # and joined with the value before it
            for box in (UNIVERSE, query.inside, query.covers, *query.overlap):
                if box is not None:
                    values.append(Region.from_box(box))
                    values.append(Region.from_boxes([box, values[-2].bounding_box()]))
            values = [v for v in values if query.matches(v.bounding_box())]
            before = PLANE.ops.total
            want = list(solved.bind(PLANE, env).select(values))
            checked = PLANE.ops.total - before
            got = list(solved.bind(PLANE, env, box_decided=alone).select(values))
            saved += checked - (PLANE.ops.total - before - checked)
            assert got == want, trial
            assert list(solved.bind(PLANE, env, box_decided=marks).select(values)) == want
        # A marked conjunct goes unchecked somewhere; an unmarked one never.
        assert (saved > 0) == (mark is not None)

    def test_no_marks_without_box_decided(self):
        """``exact`` mode and the planner's sampling bind with no marks:
        nothing is skipped.  With them a one-box value is checked (and
        billed) only where an atom a mark names is not one box."""
        solved, _slot, _mark = MARK_CASES["p-one-term"]
        env = {"A": Region.from_box(Box((0, 0), (4, 4))), "B": Region.from_box(Box((2, 2), (6, 6)))}
        values = [Region.from_box(Box((3, 3), (5, 5)))]

        def billed(**marks):
            bound = solved.bind(PLANE, env, **marks)
            before = PLANE.ops.total
            assert list(bound.select(values)) == [0]
            return PLANE.ops.total - before, bound.decides_one_box

        ops, every = billed()
        assert ops > 0 and not every
        assert billed(box_decided=box_decided(solved)) == (0, True)
        env["B"] = Region.from_boxes([Box((2, 2), (6, 6)), Box((8, 8), (9, 9))])
        ops, every = billed(box_decided=box_decided(solved))
        assert ops > 0 and not every


class TestSmugglersConversion:
    """The Section 2 bounding-box system, regenerated (E1, second half)."""

    @pytest.fixture(scope="class")
    def templates(self):
        tri = triangular_form(smugglers_system(), SMUGGLERS_ORDER)
        return {
            c.variable: compile_solved_constraint(c) for c in tri.constraints
        }

    def test_step_T_is_trivial(self, templates):
        # Line 1 of the paper's box system: 0 ⊑ ⌈T⌉ (all other parts
        # trivial — U_{¬C} = TOP).
        t = templates["T"]
        assert t.lower == BOT
        assert t.upper == TOP
        assert len(t.overlaps) == 1
        assert t.overlaps[0].p_upper == TOP  # ⌈¬C⌉ approximated by TOP
        assert t.overlaps[0].q_upper == BOT

    def test_step_R_matches_paper(self, templates):
        # 0 ⊑ ⌈R⌉ ⊑ ⌈C⌉⊔⌈T⌉;  ⌈A⌉⊓⌈R⌉ ≠ ∅;  ⌈R⌉⊓⌈T⌉ ≠ ∅.
        t = templates["R"]
        assert t.lower == BOT
        assert t.upper == bjoin(BoxVar("C"), BoxVar("T"))
        ps = {o.p_upper for o in t.overlaps}
        assert ps == {BoxVar("A"), BoxVar("T")}
        for o in t.overlaps:
            assert o.q_upper == BOT

    def test_step_B_matches_paper(self, templates):
        # 0 ⊑ ⌈B⌉ ⊑ ⌈C⌉  (lower bound's L is empty: the bound R∧¬A∧¬T
        # contains no positive atom).
        t = templates["B"]
        assert t.lower == BOT
        assert t.upper == BoxVar("C")
        assert t.overlaps == ()

    def test_instantiated_step_R_query(self, templates):
        env = {
            "C": Box((1.0, 1.0), (12.0, 12.0)),
            "A": Box((8.0, 8.0), (11.0, 11.0)),
            "T": Box((0.5, 5.0), (1.5, 6.0)),
        }
        q = templates["R"].instantiate(env, UNIVERSE)
        assert q.inside == Box((0.5, 1.0), (12.0, 12.0))
        assert set(q.overlap) == {env["A"], env["T"]}
        # A road box satisfying the exact constraints must match.
        road_box = Box((1.0, 5.0), (9.0, 9.0))
        assert q.matches(road_box)
        # A road far from the town must not.
        assert not q.matches(Box((9.0, 9.0), (10.0, 10.0)))


class TestNecessityOfTemplates:
    """The compiled BoxQuery is a NECESSARY condition: every region value
    satisfying the exact solved constraint has a box matching the query."""

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_on_smugglers_level_R(self, data):
        from tests.strategies import region_elements

        tri = triangular_form(smugglers_system(), SMUGGLERS_ORDER)
        solved = tri.constraint_for("R")
        template = compile_solved_constraint(solved)

        env = {
            "C": data.draw(region_elements(), label="C"),
            "A": data.draw(region_elements(), label="A"),
            "T": data.draw(region_elements(), label="T"),
        }
        value = data.draw(region_elements(), label="R")
        if not solved.holds(PLANE, value, env):
            return
        box_env = {n: env[n].bounding_box() for n in env}
        q = template.instantiate(box_env, UNIVERSE)
        assert q.matches(value.bounding_box())
