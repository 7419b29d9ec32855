"""Tests for the Figure 3 point-mapping reduction and the z-order join."""

import random

import pytest
from hypothesis import given, settings

from repro.boxes.bconstraints import BoxQuery
from repro.boxes.box import EMPTY_BOX, Box
from repro.spatial.gridfile import GridFile
from repro.spatial.rangequery import compile_range, figure3_rectangle, matches_via_point
from repro.spatial.table import SpatialTable
from repro.spatial.zorder import ZGrid, ZOrderIndex, interleave_batch, zorder_join
from repro.algebra.regions import Region
from tests.strategies import nonempty_boxes

UNIVERSE = Box((0.0, 0.0), (64.0, 64.0))


def _grid_boxes(n, seed=0, span=60.0):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        lo = (rng.randrange(0, int(span)), rng.randrange(0, int(span)))
        size = (rng.randrange(1, 8), rng.randrange(1, 8))
        out.append(Box(lo, (lo[0] + size[0], lo[1] + size[1])))
    return out


def _overlap_query(index, probe):
    """Objects of ``index`` overlapping ``probe``: a join against a
    one-box index."""
    probe_index = ZOrderIndex(index.grid)
    probe_index.insert(probe, "probe")
    return {value for value, _probe in zorder_join(index, probe_index, exact=True)}


class TestCompileRange:
    """Figure 3: the three constraint forms become ONE orthogonal range."""

    def test_inside_constraint(self):
        q = BoxQuery(inside=Box((0, 0), (4, 4)))
        pr = compile_range(q, 2)
        assert pr.contains(Box((1, 1), (2, 2)).to_point())
        assert not pr.contains(Box((1, 1), (5, 5)).to_point())

    def test_covers_constraint(self):
        q = BoxQuery(covers=Box((1, 1), (2, 2)))
        pr = compile_range(q, 2)
        assert pr.contains(Box((0, 0), (4, 4)).to_point())
        assert not pr.contains(Box((1.5, 0), (4, 4)).to_point())

    def test_overlap_constraint(self):
        q = BoxQuery(overlap=(Box((2, 2), (4, 4)),))
        pr = compile_range(q, 2)
        assert pr.contains(Box((3, 3), (5, 5)).to_point())
        assert not pr.contains(Box((4, 4), (6, 6)).to_point())  # touching

    def test_empty_overlap_gives_empty_range(self):
        q = BoxQuery(overlap=(EMPTY_BOX,))
        assert compile_range(q, 2).is_empty()

    def test_clip_finite(self):
        q = BoxQuery(overlap=(Box((2, 2), (4, 4)),))
        pr = compile_range(q, 2).clip_finite(UNIVERSE)
        assert all(v != float("-inf") for v in pr.lo)
        assert all(v != float("inf") for v in pr.hi)

    @given(nonempty_boxes(grid=1), nonempty_boxes(grid=1), nonempty_boxes(grid=1), nonempty_boxes(grid=1))
    @settings(max_examples=200)
    def test_point_mapping_equals_direct_evaluation(self, target, a, b, c):
        """The reduction is exact on integer-grid boxes: BoxQuery.matches
        agrees with membership of the 2k-point in the compiled range."""
        q = BoxQuery(inside=a, covers=b, overlap=(c,))
        assert matches_via_point(q, target) == q.matches(target)

    @given(nonempty_boxes(grid=1), nonempty_boxes(grid=1))
    @settings(max_examples=120)
    def test_single_constraints_roundtrip(self, target, probe):
        for q in [
            BoxQuery(inside=probe),
            BoxQuery(covers=probe),
            BoxQuery(overlap=(probe,)),
        ]:
            assert matches_via_point(q, target) == q.matches(target)


class TestFigure3:
    def test_rectangle_semantics(self):
        # a ⊑ x, x ⊑ b, x ⊓ c ≠ ∅ over the line.
        pr = figure3_rectangle(a=(4, 5), b=(0, 10), c=(7, 9))
        # x = [3, 8): contains [4,5), inside [0,10), overlaps [7,9).
        assert pr.contains((3.0, 8.0))
        # x = [4, 6): fails the overlap with [7,9).
        assert not pr.contains((4.0, 6.0))
        # x = [5, 8): fails to cover [4,5).
        assert not pr.contains((5.0, 8.0))
        # x = [-1, 11): not inside [0,10).
        assert not pr.contains((-1.0, 11.0))

    def test_rectangle_is_2d(self):
        pr = figure3_rectangle((4, 5), (0, 10), (7, 9))
        assert pr.dim == 2


class TestTableBackendsAgree:
    """The same BoxQuery must return the same rows on both backends and
    through the Figure 3 reduction: one ``compile_range`` rectangle over
    a grid file of the boxes' 2k-dim points."""

    def _tables(self):
        tables = {}
        for kind in ("rtree", "scan"):
            tables[kind] = SpatialTable(
                f"t_{kind}", dim=2, index=kind, universe=UNIVERSE
            )
        for i, b in enumerate(_grid_boxes(250, seed=4)):
            for t in tables.values():
                t.insert(i, Region.from_box(b))
        return tables

    def test_agreement_on_random_queries(self):
        tables = self._tables()
        points = GridFile(4)
        for i, b in enumerate(_grid_boxes(250, seed=4)):
            points.insert(b.to_point(), i)
        rng = random.Random(9)
        for trial in range(30):
            lo = (rng.randrange(0, 50), rng.randrange(0, 50))
            probe = Box(lo, (lo[0] + rng.randrange(1, 12), lo[1] + rng.randrange(1, 12)))
            shape = rng.choice(["overlap", "inside", "combined"])
            if shape == "overlap":
                q = BoxQuery(overlap=(probe,))
            elif shape == "inside":
                q = BoxQuery(inside=probe)
            else:
                q = BoxQuery(
                    inside=Box((0, 0), (40, 40)), overlap=(probe,)
                )
            results = {
                kind: {o.oid for o in t.range_query(q)}
                for kind, t in tables.items()
            }
            pr = compile_range(q, 2).clip_finite(UNIVERSE)
            via_points = (
                set()
                if pr.is_empty()
                else {oid for _p, oid in points.range_search(pr.lo, pr.hi)}
            )
            assert results["rtree"] == results["scan"], f"trial {trial}"
            assert via_points == results["scan"], f"trial {trial}"

    def test_probe_counters(self):
        tables = self._tables()
        t = tables["rtree"]
        t.reset_stats()
        t.range_query(BoxQuery(overlap=(Box((0, 0), (5, 5)),)))
        assert t.probes == 1
        assert t.index_stats()["kind"] == "rtree"


class TestZOrder:
    def test_interleave(self):
        np = pytest.importorskip("numpy")
        # 2-D: x=0b11, y=0b01 -> bits x0,y0,x1,y1 = 1,1,1,0 -> 0b0111.
        cells = np.array([[0b11, 0b01]], dtype=np.int64)
        assert int(interleave_batch(cells, bits=2)[0]) == 0b0111

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            ZGrid(EMPTY_BOX)
        with pytest.raises(ValueError):
            ZGrid(UNIVERSE, levels=0)

    def test_decompose_full_universe_is_one_range(self):
        grid = ZGrid(UNIVERSE, levels=4)
        ranges = grid.decompose(UNIVERSE)
        assert len(ranges) == 1
        assert ranges[0].lo == 0
        assert ranges[0].hi == grid.cell_count()

    def test_decompose_small_box(self):
        grid = ZGrid(UNIVERSE, levels=5)
        ranges = grid.decompose(Box((0.0, 0.0), (2.0, 2.0)))
        assert ranges
        total = sum(r.hi - r.lo for r in ranges)
        assert total >= 1
        # Ranges are sorted and non-adjacent after coalescing.
        for r1, r2 in zip(ranges, ranges[1:]):
            assert r1.hi < r2.lo

    def test_decompose_outside_universe(self):
        grid = ZGrid(UNIVERSE, levels=4)
        assert grid.decompose(Box((100.0, 100.0), (110.0, 110.0))) == []
        assert grid.decompose(EMPTY_BOX) == []

    def test_join_agrees_with_nested_loop(self):
        grid = ZGrid(UNIVERSE, levels=6)
        left_boxes = _grid_boxes(60, seed=1)
        right_boxes = _grid_boxes(60, seed=2)
        left = ZOrderIndex(grid)
        right = ZOrderIndex(grid)
        for i, b in enumerate(left_boxes):
            left.insert(b, ("L", i))
        for j, b in enumerate(right_boxes):
            right.insert(b, ("R", j))
        got = {
            (a[1], b[1]) for a, b in zorder_join(left, right, exact=True)
        }
        expected = {
            (i, j)
            for i, lb in enumerate(left_boxes)
            for j, rb in enumerate(right_boxes)
            if lb.overlaps(rb)
        }
        assert got == expected

    def test_overlap_query_agrees_with_scan(self):
        grid = ZGrid(UNIVERSE, levels=6)
        items = _grid_boxes(120, seed=3)
        index = ZOrderIndex(grid)
        for i, b in enumerate(items):
            index.insert(b, i)
        probe = Box((10.0, 10.0), (20.0, 20.0))
        got = _overlap_query(index, probe)
        expected = {i for i, b in enumerate(items) if b.overlaps(probe)}
        assert got == expected


class TestZOrderEdgeCases:
    """Satellite coverage: non-square universes, degenerate one-cell
    boxes, and the coarsest (single-level) curves."""

    RECT = Box((0.0, 0.0), (64.0, 16.0))  # 4:1 aspect, non-square cells

    def test_non_square_universe_cell_geometry(self):
        grid = ZGrid(self.RECT, levels=3)
        # Full cover is still one contiguous range; cells are 8x2.
        ranges = grid.decompose(self.RECT)
        assert len(ranges) == 1 and ranges[0].hi == grid.cell_count()
        one_cell = grid.decompose(Box((0.0, 0.0), (8.0, 2.0)))
        assert len(one_cell) == 1
        assert one_cell[0].hi - one_cell[0].lo == 1

    def test_non_square_join_agrees_with_nested_loop(self):
        grid = ZGrid(self.RECT, levels=4)
        rng = random.Random(5)
        lefts, rights = [], []
        for n in range(40):
            lo = (rng.uniform(0, 60), rng.uniform(0, 14))
            lefts.append(Box(lo, (lo[0] + rng.uniform(1, 6), lo[1] + rng.uniform(0.5, 2))))
            lo = (rng.uniform(0, 60), rng.uniform(0, 14))
            rights.append(Box(lo, (lo[0] + rng.uniform(1, 6), lo[1] + rng.uniform(0.5, 2))))
        left = ZOrderIndex(grid)
        right = ZOrderIndex(grid)
        for i, b in enumerate(lefts):
            left.insert(b, i)
        for j, b in enumerate(rights):
            right.insert(b, j)
        got = set(zorder_join(left, right, exact=True))
        want = {
            (i, j)
            for i, lb in enumerate(lefts)
            for j, rb in enumerate(rights)
            if lb.overlaps(rb)
        }
        assert got == want

    def test_degenerate_one_cell_boxes(self):
        """Boxes smaller than (or equal to) one finest cell decompose to
        a single width-1 z-interval, wherever they sit."""
        grid = ZGrid(UNIVERSE, levels=4)  # 16x16 cells of 4x4
        tiny_inside = grid.decompose(Box((5.0, 5.0), (6.0, 6.0)))
        assert len(tiny_inside) == 1
        assert tiny_inside[0].hi - tiny_inside[0].lo == 1
        exact_cell = grid.decompose(Box((4.0, 8.0), (8.0, 12.0)))
        assert len(exact_cell) == 1
        assert exact_cell[0].hi - exact_cell[0].lo == 1
        # A sliver straddling a cell boundary covers exactly two cells.
        straddle = grid.decompose(Box((3.9, 5.0), (4.1, 6.0)))
        assert sum(r.hi - r.lo for r in straddle) == 2

    def test_single_level_curve(self):
        """levels=1 is the coarsest legal curve (2 cells per dimension);
        level 0 (a 1-cell "curve") is rejected by validation."""
        with pytest.raises(ValueError):
            ZGrid(UNIVERSE, levels=0)
        grid = ZGrid(UNIVERSE, levels=1)
        assert grid.cell_count() == 4
        quadrant = grid.decompose(Box((0.0, 0.0), (32.0, 32.0)))
        assert len(quadrant) == 1
        assert quadrant[0].hi - quadrant[0].lo == 1
        everything = grid.decompose(Box((1.0, 1.0), (63.0, 63.0)))
        assert sum(r.hi - r.lo for r in everything) == 4
        # The coarse join still agrees with the nested loop (more false
        # candidates, same verified pairs).
        index = ZOrderIndex(grid)
        items = _grid_boxes(30, seed=9)
        for i, b in enumerate(items):
            index.insert(b, i)
        probe = Box((20.0, 20.0), (40.0, 40.0))
        got = _overlap_query(index, probe)
        assert got == {i for i, b in enumerate(items) if b.overlaps(probe)}
