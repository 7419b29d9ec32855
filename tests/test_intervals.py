"""Unit tests for the interval algebra (the 1-D atomless carrier)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from repro.algebra.intervals import IntervalAlgebra, IntervalSet
from repro.errors import UniverseMismatchError
from tests.strategies import LINE, interval_elements


class TestIntervalSetCanonicalisation:
    def test_empty_pairs_dropped(self):
        assert IntervalSet([(3, 3), (5, 4)]).is_empty()

    def test_overlapping_merged(self):
        s = IntervalSet([(0, 2), (1, 3)])
        assert s.intervals == ((Fraction(0), Fraction(3)),)

    def test_adjacent_merged(self):
        s = IntervalSet([(0, 1), (1, 2)])
        assert s.intervals == ((Fraction(0), Fraction(2)),)

    def test_disjoint_kept_sorted(self):
        s = IntervalSet([(4, 5), (0, 1)])
        assert s.intervals == (
            (Fraction(0), Fraction(1)),
            (Fraction(4), Fraction(5)),
        )

    def test_equality_is_semantic(self):
        assert IntervalSet([(0, 1), (1, 2)]) == IntervalSet([(0, 2)])

    def test_hashable(self):
        assert hash(IntervalSet([(0, 1)])) == hash(IntervalSet([(0, 1)]))

    def test_measure(self):
        s = IntervalSet([(0, 1), (2, 4)])
        assert s.measure() == 3

    def test_bounding_interval(self):
        s = IntervalSet([(1, 2), (5, 6)])
        assert s.bounding_interval() == (1, 6)
        assert IntervalSet().bounding_interval() is None

    def test_contains_point_half_open(self):
        s = IntervalSet([(0, 1)])
        assert s.contains_point(0)
        assert s.contains_point(Fraction(1, 2))
        assert not s.contains_point(1)


class TestIntervalAlgebra:
    def test_universe_validation(self):
        with pytest.raises(ValueError):
            IntervalAlgebra(3, 3)

    def test_complement_of_middle(self):
        alg = IntervalAlgebra(0, 10)
        c = alg.complement(alg.interval(2, 5))
        assert c == IntervalSet([(0, 2), (5, 10)])

    def test_complement_rejects_outside_universe(self):
        alg = IntervalAlgebra(0, 1)
        with pytest.raises(UniverseMismatchError):
            alg.complement(IntervalSet([(0, 5)]))

    def test_meet_interleaved(self):
        alg = IntervalAlgebra(0, 10)
        a = alg.from_pairs([(0, 3), (5, 8)])
        b = alg.from_pairs([(2, 6)])
        assert alg.meet(a, b) == IntervalSet([(2, 3), (5, 6)])

    def test_join_merges(self):
        alg = IntervalAlgebra(0, 10)
        got = alg.join(alg.interval(0, 2), alg.interval(2, 5))
        assert got == IntervalSet([(0, 5)])

    def test_interval_clipped_to_universe(self):
        alg = IntervalAlgebra(0, 4)
        assert alg.interval(-5, 10) == alg.top

    def test_le(self):
        alg = IntervalAlgebra(0, 10)
        assert alg.le(alg.interval(1, 2), alg.interval(0, 5))
        assert not alg.le(alg.interval(0, 5), alg.interval(1, 2))

    def test_split_preserves_exactness(self):
        alg = IntervalAlgebra(0, 1)
        a = alg.interval(0, 1)
        for _ in range(50):  # repeated splitting never hits zero
            a, _rest = alg.split(a)
        assert not a.is_empty()
        assert a.measure() == Fraction(1, 2**50)

    def test_split_zero_rejected(self):
        with pytest.raises(ValueError):
            LINE.split(LINE.bot)

    @given(interval_elements())
    @settings(max_examples=60)
    def test_complement_involution(self, a):
        assert LINE.complement(LINE.complement(a)) == a

    @given(interval_elements(), interval_elements())
    @settings(max_examples=60)
    def test_measure_additivity(self, a, b):
        # |a| + |b| == |a ∨ b| + |a ∧ b|
        lhs = a.measure() + b.measure()
        rhs = LINE.join(a, b).measure() + LINE.meet(a, b).measure()
        assert lhs == rhs
