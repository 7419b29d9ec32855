"""Tests for the table-statistics catalog (engine/catalog.py)."""

import random

from repro.algebra.regions import Region
from repro.boxes.bconstraints import BoxQuery
from repro.boxes.box import Box
from repro.engine.catalog import Histogram, collect_statistics
from repro.spatial.table import SpatialTable

UNIVERSE = Box((0.0, 0.0), (100.0, 100.0))


def _table(boxes, name="t"):
    t = SpatialTable(name, 2, universe=UNIVERSE)
    for i, b in enumerate(boxes):
        t.insert(i, Region.from_box(b))
    return t


def _random_boxes(n, seed=0):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        lo = (rng.uniform(0, 90), rng.uniform(0, 90))
        out.append(
            Box(lo, (lo[0] + rng.uniform(1, 9), lo[1] + rng.uniform(1, 9)))
        )
    return out


class TestHistogram:
    def test_empty(self):
        h = Histogram.from_values([])
        assert h.total == 0
        assert h.fraction_below(5.0) == 0.0
        assert h.fraction_at_least(5.0) == 1.0

    def test_point_population(self):
        h = Histogram.from_values([3.0] * 10)
        assert h.fraction_below(3.0) == 0.0
        assert h.fraction_at_most(3.0) == 1.0
        assert h.fraction_at_least(3.0) == 1.0
        assert h.fraction_at_least(3.5) == 0.0

    def test_uniform_interpolation(self):
        values = [i / 10 for i in range(1000)]
        h = Histogram.from_values(values, bins=16)
        for x in (10.0, 25.0, 50.0, 75.0):
            frac = h.fraction_below(x)
            exact = sum(1 for v in values if v < x) / len(values)
            assert abs(frac - exact) < 0.05

    def test_monotone(self):
        h = Histogram.from_values([1, 2, 2, 3, 8, 9, 20], bins=4)
        samples = [h.fraction_below(x) for x in range(0, 25)]
        assert samples == sorted(samples)
        assert samples[0] == 0.0 and samples[-1] == 1.0


class TestCollect:
    def test_empty_table(self):
        stats = collect_statistics(_table([]))
        assert stats.count == 0
        assert stats.mbr.is_empty()
        assert stats.sample == ()
        assert stats.sel_query(BoxQuery()) == 0.0

    def test_counts_and_mbr(self):
        boxes = _random_boxes(50)
        stats = collect_statistics(_table(boxes))
        assert stats.count == 50
        for b in boxes:
            assert b.le(stats.mbr)
        assert len(stats.lo_hists) == 2 and len(stats.hi_hists) == 2
        assert all(s > 0 for s in stats.avg_sides)

    def test_sample_bounded(self):
        stats = collect_statistics(_table(_random_boxes(200)), sample_size=16)
        assert len(stats.sample) == 16

    def test_selectivity_tracks_exact_fraction(self):
        boxes = _random_boxes(400, seed=3)
        stats = collect_statistics(_table(boxes))
        queries = [
            BoxQuery(inside=Box((0, 0), (50, 50))),
            BoxQuery(overlap=(Box((20, 20), (40, 40)),)),
            BoxQuery(overlap=(Box((70, 70), (90, 90)),)),
            BoxQuery(inside=Box((10, 10), (80, 80)),
                     overlap=(Box((30, 30), (60, 60)),)),
        ]
        for q in queries:
            exact = sum(1 for b in boxes if q.matches(b)) / len(boxes)
            est = stats.selectivity(q)
            assert abs(est - exact) < 0.15, (q, est, exact)

    def test_covers_selectivity(self):
        # Boxes all cover the center point box.
        boxes = [Box((40 - i, 40 - i), (60 + i, 60 + i)) for i in range(20)]
        stats = collect_statistics(_table(boxes))
        probe = Box((49, 49), (51, 51))
        assert stats.sel_covers(probe) > 0.8
        outside = Box((0, 0), (2, 2))
        assert stats.sel_covers(outside) < 0.2

    def test_unsatisfiable_query(self):
        stats = collect_statistics(_table(_random_boxes(20)))
        from repro.boxes.box import EMPTY_BOX

        q = BoxQuery(overlap=(EMPTY_BOX,))
        assert stats.sel_query(q) == 0.0
        assert stats.matching_sample(q) == []
        assert stats.selectivity(q) == 0.0


class TestCaching:
    def test_cached_until_mutation(self):
        t = _table(_random_boxes(30))
        s1 = t.statistics()
        s2 = t.statistics()
        assert s1 is s2
        t.insert(999, Region.from_box(Box((1, 1), (2, 2))))
        s3 = t.statistics()
        assert s3 is not s1
        assert s3.count == 31

    def test_reindex_invalidates(self):
        t = _table(_random_boxes(30))
        s1 = t.statistics()
        t.pack()
        assert t.statistics() is not s1
