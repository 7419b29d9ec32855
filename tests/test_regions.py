"""Unit tests for boxes and the k-dimensional region algebra."""

import pytest
from hypothesis import given, settings

from repro.algebra.regions import Region, RegionAlgebra, box_subtract
from repro.boxes.box import EMPTY_BOX, Box, enclose_all
from repro.errors import DimensionMismatchError, UniverseMismatchError
from tests.strategies import PLANE, SPACE3, boxes, nonempty_boxes, region_elements


class TestBox:
    def test_empty_normalisation(self):
        assert Box((0, 0), (0, 1)).is_empty()
        assert Box((2,), (1,)).is_empty()
        assert EMPTY_BOX.is_empty()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Box((0,), (1, 2))
        with pytest.raises(DimensionMismatchError):
            Box((0,), (1,)).meet(Box((0, 0), (1, 1)))

    def test_volume_and_sides(self):
        b = Box((0, 0), (2, 3))
        assert b.volume() == 6
        assert b.sides() == (2, 3)
        assert EMPTY_BOX.volume() == 0

    def test_meet_is_intersection(self):
        a = Box((0, 0), (4, 4))
        b = Box((2, 2), (6, 6))
        assert a.meet(b) == Box((2, 2), (4, 4))
        assert a.meet(Box((5, 5), (6, 6))).is_empty()

    def test_enclose_is_minimal_enclosing(self):
        a = Box((0, 0), (1, 1))
        b = Box((3, 3), (4, 4))
        assert a.enclose(b) == Box((0, 0), (4, 4))

    def test_enclose_not_union(self):
        # Paper: "Note that ⊔ is not equivalent to set union."
        a = Box((0, 0), (1, 1))
        b = Box((3, 3), (4, 4))
        joined = a.enclose(b)
        assert joined.volume() > a.volume() + b.volume()

    def test_le_containment(self):
        inner = Box((1, 1), (2, 2))
        outer = Box((0, 0), (4, 4))
        assert inner.le(outer)
        assert not outer.le(inner)
        assert EMPTY_BOX.le(inner)
        assert not inner.le(EMPTY_BOX)

    def test_empty_is_bottom(self):
        b = Box((0, 0), (1, 1))
        assert b.meet(EMPTY_BOX).is_empty()
        assert b.enclose(EMPTY_BOX) == b

    def test_point_mapping_roundtrip(self):
        b = Box((1, 2), (3, 4))
        assert b.to_point() == (1, 2, 3, 4)
        assert Box.from_point((1, 2, 3, 4)) == b
        with pytest.raises(ValueError):
            EMPTY_BOX.to_point()
        with pytest.raises(DimensionMismatchError):
            Box.from_point((1, 2, 3))

    def test_contains_point_half_open(self):
        b = Box((0, 0), (1, 1))
        assert b.contains_point((0, 0))
        assert not b.contains_point((1, 0))

    def test_inflate_translate(self):
        b = Box((1, 1), (2, 2))
        assert b.inflate(1) == Box((0, 0), (3, 3))
        assert b.translate((1, -1)) == Box((2, 0), (3, 1))

    def test_helpers(self):
        assert enclose_all([]) == EMPTY_BOX
        a = Box((0, 0), (2, 2))
        b = Box((1, 1), (3, 3))
        assert enclose_all([a, b]) == Box((0, 0), (3, 3))

    @given(nonempty_boxes(), nonempty_boxes(), nonempty_boxes())
    @settings(max_examples=80)
    def test_lattice_laws(self, a, b, c):
        # ⊓/⊔ form a lattice under ⊑.
        assert a.meet(b).le(a) and a.meet(b).le(b)
        assert a.le(a.enclose(b)) and b.le(a.enclose(b))
        assert a.meet(b) == b.meet(a)
        assert a.enclose(b) == b.enclose(a)
        assert a.meet(b.meet(c)) == a.meet(b).meet(c)
        assert a.enclose(b.enclose(c)) == a.enclose(b).enclose(c)
        # Lemma 11: (f ⊓ g) ⊔ (f ⊓ h) ⊑ f ⊓ (g ⊔ h)
        lhs = a.meet(b).enclose(a.meet(c))
        rhs = a.meet(b.enclose(c))
        assert lhs.le(rhs)


class TestBoxSubtract:
    def test_disjoint_untouched(self):
        a = Box((0, 0), (1, 1))
        b = Box((5, 5), (6, 6))
        assert box_subtract(a, b) == [a]

    def test_full_cover_empties(self):
        a = Box((1, 1), (2, 2))
        b = Box((0, 0), (4, 4))
        assert box_subtract(a, b) == []

    def test_pieces_are_disjoint_and_exact(self):
        a = Box((0, 0), (4, 4))
        b = Box((1, 1), (3, 3))
        pieces = box_subtract(a, b)
        assert len(pieces) <= 4
        total = sum(p.volume() for p in pieces)
        assert total == a.volume() - b.volume()
        for i, p in enumerate(pieces):
            assert p.meet(b).is_empty()
            for q in pieces[i + 1 :]:
                assert p.meet(q).is_empty()

    @given(nonempty_boxes(), boxes())
    @settings(max_examples=100)
    def test_measure_law(self, a, b):
        pieces = box_subtract(a, b)
        inter = a.meet(b)
        assert sum(p.volume() for p in pieces) == pytest.approx(
            a.volume() - inter.volume()
        )


class TestRegion:
    def test_from_boxes_overlapping(self):
        r = Region.from_boxes([Box((0, 0), (2, 2)), Box((1, 1), (3, 3))])
        assert r.measure() == pytest.approx(7.0)  # 4 + 4 - 1

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatchError):
            Region((Box((0,), (1,)), Box((0, 0), (1, 1))))

    def test_equality_semantic(self):
        r1 = Region.from_boxes([Box((0, 0), (2, 1)), Box((0, 1), (2, 2))])
        r2 = Region.from_box(Box((0, 0), (2, 2)))
        assert r1 == r2

    def test_region_unhashable(self):
        with pytest.raises(TypeError):
            hash(Region.empty())

    def test_bounding_box(self):
        r = Region.from_boxes([Box((0, 0), (1, 1)), Box((3, 3), (4, 5))])
        assert r.bounding_box() == Box((0, 0), (4, 5))
        assert Region.empty().bounding_box().is_empty()

    def test_contains_point(self):
        r = Region.from_boxes([Box((0, 0), (1, 1))])
        assert r.contains_point((0.5, 0.5))
        assert not r.contains_point((2, 2))

    def test_translate(self):
        r = Region.from_box(Box((0, 0), (1, 1))).translate((5, 5))
        assert r.bounding_box() == Box((5, 5), (6, 6))


class TestRegionAlgebra:
    def test_universe_validation(self):
        with pytest.raises(ValueError):
            RegionAlgebra(EMPTY_BOX)

    def test_complement(self):
        alg = RegionAlgebra(Box((0, 0), (4, 4)))
        inner = alg.box_region(Box((1, 1), (3, 3)))
        comp = alg.complement(inner)
        assert comp.measure() == pytest.approx(12.0)
        assert alg.is_zero(alg.meet(inner, comp))
        assert alg.eq(alg.join(inner, comp), alg.top)

    def test_complement_rejects_outside(self):
        alg = RegionAlgebra(Box((0, 0), (1, 1)))
        with pytest.raises(UniverseMismatchError):
            alg.complement(Region.from_box(Box((0, 0), (5, 5))))

    def test_diff_shortcut(self):
        alg = PLANE
        a = alg.box_region(Box((0, 0), (2, 2)))
        b = alg.box_region(Box((1, 0), (2, 2)))
        assert alg.diff(a, b).measure() == pytest.approx(2.0)

    def test_3d(self):
        alg = SPACE3
        cube = alg.box_region(Box((0, 0, 0), (2, 2, 2)))
        assert cube.measure() == pytest.approx(8.0)
        assert alg.complement(cube).measure() == pytest.approx(8**3 - 8)

    def test_split_3d(self):
        alg = SPACE3
        cube = alg.box_region(Box((0, 0, 0), (2, 2, 2)))
        p, q = alg.split(cube)
        assert p.measure() == pytest.approx(4.0)
        assert alg.is_zero(alg.meet(p, q))
        assert alg.eq(alg.join(p, q), cube)

    @given(region_elements(), region_elements())
    @settings(max_examples=50, deadline=None)
    def test_measure_additivity(self, a, b):
        lhs = a.measure() + b.measure()
        rhs = PLANE.join(a, b).measure() + PLANE.meet(a, b).measure()
        assert lhs == pytest.approx(rhs)

    @given(region_elements(), region_elements())
    @settings(max_examples=50, deadline=None)
    def test_bounding_box_is_monotone(self, a, b):
        # Lemma 10: ⌈f ∧ g⌉ ⊑ ⌈f⌉ ⊓ ⌈g⌉; and ⌈f ∨ g⌉ = ⌈f⌉ ⊔ ⌈g⌉.
        assert (
            PLANE.meet(a, b)
            .bounding_box()
            .le(a.bounding_box().meet(b.bounding_box()))
        )
        assert PLANE.join(a, b).bounding_box() == a.bounding_box().enclose(
            b.bounding_box()
        )
