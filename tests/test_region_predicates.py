"""Emptiness-only region predicates vs the materialising code they
replaced (``tests/reference_probe.py``).

``RegionAlgebra.le`` / ``meets`` decide ``a ⊆ b`` / ``a ∧ b ≠ 0`` on the
box tuples; ``Box.meet`` / ``enclose``, ``box_subtract``,
``_difference`` and ``RegionAlgebra.meet`` skip re-validating
coordinates that came out of live boxes.  Truth values, ``OpCounter``
deltas and every produced box (coordinates, emptiness, ``float`` types)
must equal the validating, region-building originals.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra import Region, RegionAlgebra
from repro.algebra.regions import _difference, box_subtract
from repro.boxes import Box
from repro.boxes.box import EMPTY_BOX
from repro.errors import DimensionMismatchError
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
