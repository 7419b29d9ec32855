"""Emptiness-only region predicates vs the materialising code they
replaced (``tests/reference_probe.py``).

``RegionAlgebra.le`` / ``meets`` decide ``a ⊆ b`` / ``a ∧ b ≠ 0`` on the
box tuples; ``Box.meet`` / ``enclose``, ``box_subtract``,
``_difference`` and ``RegionAlgebra.meet`` skip re-validating
coordinates that came out of live boxes.  Truth values, ``OpCounter``
deltas and every produced box (coordinates, emptiness, ``float`` types)
must equal the validating, region-building originals.

The one-box forms ``covers_box``/``box_le``/``box_meets``/
``box_complement``/``outside_meets`` must answer and bill as ``le``/
``meets``/``complement`` on the one-box region.  ``BoundConstraint.select``
checks a whole candidate list in one lazy loop, single-box candidates
through those forms; ``FrozenBound`` below is the per-candidate ``holds``
it replaced.  Survivors, their order, the
exception and the candidate it is raised at, and the ``OpCounter``
after every consumed candidate must equal the frozen check's.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra.regions import Region, RegionAlgebra
from repro.algebra.regions import _difference, box_subtract
from repro.boolean.syntax import FALSE, TRUE, Var
from repro.boolean.semantics import evaluate
from repro.boolean.syntax import conj, disj, neg
from repro.boxes.box import Box
from repro.boxes.box import EMPTY_BOX
from repro.constraints.solved import Disequation, SolvedConstraint
from repro.errors import (
    DimensionMismatchError,
    UnboundVariableError,
    UniverseMismatchError,
)
from tests.reference_probe import (
    reference_box_enclose,
    reference_box_meet,
    reference_box_subtract,
    reference_difference,
    reference_join,
    reference_le,
    reference_meet,
    reference_meets,
)
from tests.strategies import (
    BITS8,
    LINE,
    PLANE,
    SPACE3,
    bitvec_elements,
    boxes,
    interval_elements,
    region_elements,
)
from tests.test_boolean_semantics import formulas

SEGMENT = RegionAlgebra(Box((0.0,), (16.0,)))
ALGEBRAS = {1: SEGMENT, 2: PLANE, 3: SPACE3}


def _facts(box):
    """Everything observable about a box, coordinate types included."""
    return (box.lo, box.hi, box.is_empty(), [type(c) for c in box.lo + box.hi])


def _region_facts(region):
    return [_facts(box) for box in region.boxes]


@st.composite
def region_pairs(draw):
    """Two regions of one algebra (1-3 dimensions) on a coarse grid, so
    touching half-open edges, nesting and equality are all likely; the
    empty region and the whole universe are drawn outright too."""
    alg = ALGEBRAS[draw(st.integers(1, 3))]
    one = st.one_of(
        region_elements(alg, max_boxes=4),
        st.just(alg.bot),
        st.just(alg.top),
    )
    a, b = draw(one), draw(one)
    if draw(st.booleans()) and a.boxes:
        # Nested on purpose: b is a with one more box.
        extra = draw(boxes(alg.universe_box.dim, 0, int(alg.universe_box.hi[0])))
        b = alg.join(a, Region.from_box(extra.meet(alg.universe_box)))
    return alg, a, b


def _billed(alg, fn, *args):
    before = alg.ops.snapshot()
    result = fn(*args)
    after = alg.ops.snapshot()
    return result, {k: after[k] - before[k] for k in after}


@given(region_pairs())
@settings(max_examples=400, deadline=None)
def test_le_and_meets_equal_the_materialising_predicates(pair):
    alg, a, b = pair
    for x, y in ((a, b), (b, a), (a, a)):
        assert _billed(alg, alg.le, x, y) == _billed(alg, reference_le, alg, x, y)
        assert _billed(alg, alg.meets, x, y) == _billed(
            alg, reference_meets, alg, x, y
        )
        # The derived predicates ride on them with their own billing.
        assert _billed(alg, alg.disjoint, x, y) == (
            not reference_meets(alg, x, y),
            {"meet": 1, "join": 0, "complement": 0, "comparisons": 1, "total": 2},
        )


@given(region_pairs())
@settings(max_examples=400, deadline=None)
def test_one_box_forms_equal_the_region_calls(pair):
    """``covers_box``/``box_le``/``box_meets`` and ``box_complement``
    then ``outside_meets`` answer and bill as ``le``/``meets``/
    ``complement`` on the one-box region, for boxes inside the universe
    and reaching past it."""
    alg, a, b = pair
    half = alg.universe_box.hi[0] / 2
    for box in b.boxes + tuple(x.translate([half] * x.dim) for x in b.boxes):
        one = Region((box,))
        assert _billed(alg, alg.covers_box, a, box) == _billed(alg, alg.le, a, one)
        assert _billed(alg, alg.box_le, box, a) == _billed(alg, alg.le, one, a)
        assert _billed(alg, alg.box_meets, box, a) == _billed(alg, alg.meets, one, a)
        before = alg.ops.snapshot()
        try:
            outside = alg.complement(one)
        except UniverseMismatchError:
            with pytest.raises(UniverseMismatchError):
                alg.box_complement(box)
            after = alg.ops.snapshot()
            assert after["complement"] - before["complement"] == 2
            continue
        complemented = alg.ops.snapshot()
        assert _billed(alg, alg.box_complement, box) == (
            box,
            {k: complemented[k] - before[k] for k in before},
        )
        assert _billed(alg, alg.outside_meets, box, a) == _billed(
            alg, alg.meets, outside, a
        )


@given(region_pairs())
@settings(max_examples=400, deadline=None)
def test_built_regions_equal_the_validating_constructors(pair):
    alg, a, b = pair
    assert _region_facts(_difference(a, b)) == _region_facts(
        reference_difference(a, b)
    )
    assert _region_facts(alg.meet(a, b)) == _region_facts(reference_meet(alg, a, b))
    for x, y in ((a, b), (b, a)):
        joined, billed = _billed(alg, alg.join, x, y)
        expected, reference_billed = _billed(alg, reference_join, alg, x, y)
        assert _region_facts(joined) == _region_facts(expected)
        assert billed == reference_billed
    assert _region_facts(alg.complement(a)) == _region_facts(
        reference_difference(alg.top, a)
    )
    for ba in a.boxes:
        for bb in b.boxes:
            assert _facts(ba.meet(bb)) == _facts(reference_box_meet(ba, bb))
            assert _facts(ba.enclose(bb)) == _facts(reference_box_enclose(ba, bb))
            assert [_facts(p) for p in box_subtract(ba, bb)] == [
                _facts(p) for p in reference_box_subtract(ba, bb)
            ]
            assert ba.overlaps(bb) == (not reference_box_meet(ba, bb).is_empty())


@given(boxes(2), boxes(2))
@settings(max_examples=300, deadline=None)
def test_box_lattice_on_possibly_empty_boxes(a, b):
    assert _facts(a.meet(b)) == _facts(reference_box_meet(a, b))
    assert _facts(a.enclose(b)) == _facts(reference_box_enclose(a, b))
    assert a.overlaps(b) == (not reference_box_meet(a, b).is_empty())
    assert a.le(b) == (a.is_empty() or (not b.is_empty() and a.meet(b) == a))


def test_mixed_dimensions_still_raise():
    flat, solid = Box((0.0, 0.0), (1.0, 1.0)), Box((0.0,) * 3, (1.0,) * 3)
    for call in (flat.le, flat.overlaps, flat.meet, flat.enclose):
        with pytest.raises(DimensionMismatchError):
            call(solid)
        assert call(EMPTY_BOX) is not None  # the empty box fits any dimension
    with pytest.raises(DimensionMismatchError):
        box_subtract(flat, solid)
    # ``map`` and ``zip`` stop at the shorter operand: a 3-D operand,
    # alone or in a multi-box cover, on either side, must still raise.
    a, b = Region.from_box(flat), Region.from_box(solid)
    cover = Region.from_boxes([solid, Box((2.0,) * 3, (3.0,) * 3)])
    for x, y in ((a, b), (b, a), (a, cover), (cover, a)):
        for call in (PLANE.le, PLANE.meets, PLANE.meet, PLANE.join, _difference):
            with pytest.raises(DimensionMismatchError):
                call(x, y)
    for solid_region in (b, cover):
        with pytest.raises(DimensionMismatchError):
            PLANE.complement(solid_region)


@pytest.mark.parametrize(
    "alg,elements",
    [(BITS8, bitvec_elements()), (LINE, interval_elements())],
    ids=["bitvec", "intervals"],
)
def test_generic_meets_is_not_is_zero_of_meet(alg, elements):
    @given(elements, elements)
    @settings(max_examples=100, deadline=None)
    def check(a, b):
        expected = _billed(alg, lambda: not alg.is_zero(alg.meet(a, b)))
        assert _billed(alg, alg.meets, a, b) == expected
        assert alg.disjoint(a, b) == (not expected[0])

    check()


# -- BoundConstraint.select against the per-candidate check ------------------
_PENDING = object()


class FrozenBound:
    """``BoundConstraint`` before ``select``: one ``holds`` per candidate."""

    def __init__(self, solved, algebra, env):
        self._solved, self._algebra, self._env = solved, algebra, env
        self._values = [_PENDING] * (2 + 2 * len(solved.disequations))

    def _value(self, slot, formula):
        value = self._values[slot]
        if value is _PENDING:
            value = self._values[slot] = evaluate(formula, self._algebra, self._env)
        return value

    def holds(self, value):
        algebra, solved = self._algebra, self._solved
        if not algebra.le(self._value(0, solved.lower), value):
            return False
        if not algebra.le(value, self._value(1, solved.upper)):
            return False
        outside = None
        for j, r in enumerate(solved.disequations, 1):
            if algebra.meets(value, self._value(2 * j, r.p)):
                continue
            qv = self._value(2 * j + 1, r.q)
            if algebra.is_zero(qv):
                return False
            if outside is None:
                outside = algebra.complement(value)
            if not algebra.meets(outside, qv):
                return False
        return True


def _frozen_walk(solved, alg, env, values, accept_unbound=False):
    """Per candidate: ``(passed, ops after it)``; then the exception
    type and the ops where it stopped the walk, or ``None``.  With
    ``accept_unbound`` a missing variable passes the candidate, as the
    planner's sampling counted it."""
    alg.ops.reset()
    bound, rows = FrozenBound(solved, alg, env), []
    for value in values:
        try:
            ok = bound.holds(value)
        except KeyError:
            if not accept_unbound:
                return rows, (UnboundVariableError, alg.ops.snapshot())
            ok = True
        except UniverseMismatchError:
            return rows, (UniverseMismatchError, alg.ops.snapshot())
        rows.append((ok, alg.ops.snapshot()))
    return rows, None


def _select_walk(solved, alg, env, values, accept_unbound=False, stop_after=None):
    """``_frozen_walk``'s record from one ``select`` over ``values``,
    each candidate's ops taken when ``select`` pulls the next one;
    ``stop_after`` survivors end the walk early."""
    alg.ops.reset()
    bound = solved.bind(alg, env, accept_unbound=accept_unbound)
    after = []

    def feed():
        for value in values:
            yield value
            after.append(alg.ops.snapshot())

    survivors = []
    try:
        for i in bound.select(feed()):
            survivors.append(i)
            if len(survivors) == stop_after:
                after.append(alg.ops.snapshot())
                break
    except (UnboundVariableError, UniverseMismatchError) as exc:
        return [(i in survivors, ops) for i, ops in enumerate(after)], (
            type(exc),
            alg.ops.snapshot(),
        )
    return [(i in survivors, ops) for i, ops in enumerate(after)], None


def _agree(solved, alg, env, values, accept_unbound=False):
    expected = _frozen_walk(solved, alg, env, values, accept_unbound)
    assert _select_walk(solved, alg, env, values, accept_unbound) == expected
    # Stopped after the first survivor, the walk has consumed (and
    # billed) exactly the candidates up to it.
    rows, _error = expected
    first = next((n for n, (ok, _ops) in enumerate(rows) if ok), None)
    if first is not None:
        assert _select_walk(
            solved, alg, env, values, accept_unbound, stop_after=1
        ) == (rows[: first + 1], None)
    # ``holds`` is the one-candidate walk.
    bound = solved.bind(alg, env, accept_unbound=accept_unbound)
    for value, (ok, _ops) in zip(values, rows):
        assert bound.holds(value) == ok


def _box(x0, y0, x1, y1):
    return Region.from_box(Box((x0, y0), (x1, y1)))


def _boxes(*coords):
    return Region.from_boxes([Box(c[:2], c[2:]) for c in coords])


EARLIER = ["a", "b", "c"]


@st.composite
def _walks(draw):
    """A solved constraint over a, b, c; an environment binding some of
    them; regions of zero, one or several boxes on a quarter grid (so
    half-open edges touch), some reaching past the universe."""
    f = formulas(names=EARLIER, max_leaves=5)
    disequations = draw(st.lists(st.builds(Disequation, f, f), max_size=3))
    solved = SolvedConstraint("x", draw(f), draw(f), tuple(disequations))
    names = draw(st.sets(st.sampled_from(EARLIER)), label="bound")
    inside = region_elements(PLANE, max_boxes=3)
    beyond = st.lists(boxes(2, -8, 24), min_size=1, max_size=2).map(Region.from_boxes)
    either = st.one_of(inside, inside, beyond)
    env = {n: draw(either, label=n) for n in sorted(names)}
    values = draw(st.lists(either, min_size=1, max_size=6))
    return solved, env, values


@given(_walks())
@settings(max_examples=300, deadline=None)
def test_select_equals_the_per_candidate_check(walk):
    solved, env, values = walk
    _agree(solved, PLANE, env, values)
    # Sampling: a slot over a missing variable passes the candidate
    # without being evaluated, where the frozen check evaluated it up
    # to the missing variable first — billing what it met on the way,
    # and raising if that was the complement of a region past the
    # universe.  Up to where the frozen walk stopped, the verdicts agree.
    frozen, frozen_error = _frozen_walk(solved, PLANE, env, values, True)
    walked, walked_error = _select_walk(solved, PLANE, env, values, True)
    common = min(len(frozen), len(walked))
    assert [ok for ok, _ops in walked][:common] == [ok for ok, _ops in frozen][:common]
    for (_ok, mine), (_same, theirs) in zip(walked, frozen):
        assert mine["total"] <= theirs["total"]
    if frozen_error is None:
        assert walked_error is None and len(walked) == len(frozen)
    if walked_error is not None:
        assert frozen_error is not None and len(frozen) <= len(walked)


def test_select_on_single_and_multi_box_candidates():
    a = _boxes((2, 2, 6, 6), (8, 8, 12, 12))
    # b ⊆ x ⊆ a ∨ c (two boxes), x ∧ ¬a ≠ 0 and ¬x ∧ c ≠ 0.
    solved = SolvedConstraint(
        "x",
        Var("b"),
        disj(Var("a"), Var("c")),
        (Disequation(neg(Var("a")), FALSE), Disequation(FALSE, Var("c"))),
    )
    env = {"a": a, "b": _box(3, 3, 4, 4), "c": _box(0, 0, 7, 7)}
    values = [
        _box(3, 3, 5, 5),  # inside a
        _box(2, 2, 7, 7),  # one box leaving a, not covering c
        _boxes((3, 3, 5, 5), (9, 9, 10, 10)),  # two boxes inside a
        _boxes((2, 2, 6, 6), (6, 6, 7, 7)),  # two boxes leaving a
        _box(3, 3, 9, 9),  # not inside a ∨ c
        Region.empty(),
    ]
    rows, error = _frozen_walk(solved, PLANE, env, values)
    assert [ok for ok, _ops in rows] == [False, True, False, True, False, False]
    assert error is None
    _agree(solved, PLANE, env, values)


def test_select_on_half_open_edges_that_touch():
    p = _box(4, 0, 8, 4)
    solved = SolvedConstraint(
        "x", FALSE, TRUE, (Disequation(Var("p"), conj(Var("q"), TRUE)),)
    )
    for q, expected in (
        (_box(0, 0, 4, 4), [False, True, True]),  # q = the first value
        (_box(0, 0, 4, 5), [True, True, True]),  # q pokes past it
    ):
        values = [_box(0, 0, 4, 4), _box(0, 0, 4.25, 4), _box(8, 0, 9, 4)]
        rows, _error = _frozen_walk(solved, PLANE, {"p": p, "q": q}, values)
        assert [ok for ok, _ops in rows] == expected
        _agree(solved, PLANE, {"p": p, "q": q}, values)


def test_select_with_empty_s_p_q_and_whole_t():
    values = [_box(0, 0, 1, 1), _box(15, 15, 16, 16), Region.empty()]
    for disequations, expected in (
        ((), [True, True, True]),
        ((Disequation(FALSE, FALSE),), [False, False, False]),
        ((Disequation(TRUE, FALSE),), [True, True, False]),
        ((Disequation(FALSE, TRUE),), [True, True, True]),
        ((Disequation(FALSE, TRUE),) * 2, [True, True, True]),  # one ¬x each
        ((Disequation(Var("e"), Var("e")),), [False, False, False]),
    ):
        solved = SolvedConstraint("x", Var("e"), TRUE, disequations)
        env = {"e": Region.empty()}
        rows, _error = _frozen_walk(solved, PLANE, env, values)
        assert [ok for ok, _ops in rows] == expected
        _agree(solved, PLANE, env, values)


def test_select_raises_at_the_candidate_outside_the_universe():
    # ¬x ∧ 1 ≠ 0 needs the complement, which the universe bounds.
    solved = SolvedConstraint("x", FALSE, Var("big"), (Disequation(FALSE, TRUE),))
    env = {"big": _box(-4, -4, 20, 20)}
    values = [_box(0, 0, 2, 2), _box(12, 12, 18, 18), _box(1, 1, 3, 3)]
    rows, error = _frozen_walk(solved, PLANE, env, values)
    assert [ok for ok, _ops in rows] == [True] and error[0] is UniverseMismatchError
    _agree(solved, PLANE, env, values)
    # Only the part of q inside the universe counts: all of it lies in
    # the whole-universe candidate, so ¬x ∧ q = 0 there.
    beyond = SolvedConstraint("x", FALSE, TRUE, (Disequation(FALSE, Var("big")),))
    halves = [_box(0, 0, 16, 16), _box(0, 0, 8, 16)]
    rows, error = _frozen_walk(beyond, PLANE, env, halves)
    assert [ok for ok, _ops in rows] == [False, True] and error is None
    _agree(beyond, PLANE, env, halves)
    # A candidate that passes before it needs ¬x is never checked.
    passing = SolvedConstraint("x", FALSE, Var("big"), (Disequation(TRUE, TRUE),))
    rows, error = _frozen_walk(passing, PLANE, env, values)
    assert [ok for ok, _ops in rows] == [True, True, True] and error is None
    _agree(passing, PLANE, env, values)


def test_select_on_a_slot_with_no_representative():
    values = [_box(0, 0, 2, 2), _box(4, 4, 6, 6), _box(1, 1, 5, 5)]
    # t reads b; s = a rejects the candidates that do not hold it.
    solved = SolvedConstraint("x", Var("a"), Var("b"), (Disequation(Var("b"), TRUE),))
    env = {"a": _box(4.5, 4.5, 5, 5)}
    # In the executor the missing variable raises where a candidate
    # first needs it (the first candidate s lets through).
    rows, error = _frozen_walk(solved, PLANE, env, values)
    assert [ok for ok, _ops in rows] == [False] and error[0] is UnboundVariableError
    _agree(solved, PLANE, env, values)
    # In the planner's sampling it lets the candidate through there.
    rows, error = _frozen_walk(solved, PLANE, env, values, accept_unbound=True)
    assert [ok for ok, _ops in rows] == [False, True, True] and error is None
    _agree(solved, PLANE, env, values, accept_unbound=True)
    # p_j is bound and misses the candidate; q_j reads the missing
    # variable: the candidate passes there.
    late = SolvedConstraint("x", FALSE, TRUE, (Disequation(Var("a"), Var("b")),))
    rows, error = _frozen_walk(late, PLANE, env, values, accept_unbound=True)
    assert [ok for ok, _ops in rows] == [True, True, True] and error is None
    _agree(late, PLANE, env, values, accept_unbound=True)
    rows, error = _frozen_walk(late, PLANE, env, values)
    assert rows == [] and error[0] is UnboundVariableError
    _agree(late, PLANE, env, values)
    # A compound formula over the missing variable is never evaluated,
    # so the ops its first operands cost per row are not billed either.
    compound = SolvedConstraint("x", FALSE, disj(Var("a"), Var("b")))
    rows, _error = _frozen_walk(compound, PLANE, env, values, accept_unbound=True)
    walked, _error = _select_walk(compound, PLANE, env, values, accept_unbound=True)
    assert [ok for ok, _ops in walked] == [ok for ok, _ops in rows] == [True] * 3
    assert walked[-1][1]["total"] < rows[-1][1]["total"]
