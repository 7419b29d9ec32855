"""Tests for the synthetic map and workload generators."""

import random

import pytest

from repro.algebra.regions import Region, RegionAlgebra
from repro.boxes.box import Box
from repro.datagen.maps import make_map
from repro.datagen.shapes import (
    grid_partition,
    random_box,
    thick_polyline,
)
from repro.datagen.workloads import overlay_query, sandwich_query, smugglers_query


class TestShapes:
    def test_random_box_inside_universe(self):
        rng = random.Random(0)
        universe = Box((0.0, 0.0), (50.0, 50.0))
        for _ in range(100):
            b = random_box(rng, universe)
            assert b.le(universe)
            assert not b.is_empty()

    def test_grid_partition_covers_exactly(self):
        universe = Box((0.0, 0.0), (12.0, 12.0))
        cells = grid_partition(universe, (3, 4))
        assert len(cells) == 12
        alg = RegionAlgebra(universe)
        union = alg.join_all(cells)
        assert alg.eq(union, alg.top)
        for i, a in enumerate(cells):
            for b in cells[i + 1 :]:
                assert alg.is_zero(alg.meet(a, b))

    def test_grid_partition_validates_dims(self):
        with pytest.raises(ValueError):
            grid_partition(Box((0.0,), (1.0,)), (2, 2))

    def test_thick_polyline(self):
        r = thick_polyline([(0, 0), (10, 0), (10, 10)], thickness=1.0)
        assert not r.is_empty()
        assert r.contains_point((5, 0))
        assert r.contains_point((10, 5))
        assert not r.contains_point((5, 5))

    def test_thick_polyline_rejects_diagonals(self):
        with pytest.raises(ValueError):
            thick_polyline([(0, 0), (5, 5)])


class TestSmugglersMap:
    def test_determinism(self):
        m1 = make_map(seed=42, n_towns=10, n_roads=10)
        m2 = make_map(seed=42, n_towns=10, n_roads=10)
        assert m1.border_town_ids == m2.border_town_ids
        assert m1.good_road_ids == m2.good_road_ids
        assert [t.bounding_box() for t in m1.towns] == [
            t.bounding_box() for t in m2.towns
        ]

    def test_shape_counts(self):
        m = make_map(seed=0, n_towns=15, n_roads=12, states_grid=(2, 3))
        assert len(m.towns) == 15
        assert len(m.roads) == 12
        assert len(m.states) == 6

    def test_border_towns_straddle(self):
        alg = RegionAlgebra(Box((0.0, 0.0), (100.0, 100.0)))
        m = make_map(seed=1, n_towns=20, n_roads=5)
        outside = alg.complement(m.country)
        for i in m.border_town_ids:
            town = m.towns[i]
            assert not alg.is_zero(alg.meet(town, outside)), i
        interior = [
            i for i in range(len(m.towns)) if i not in m.border_town_ids
        ]
        for i in interior:
            assert alg.le(m.towns[i], m.country), i

    def test_states_partition_country(self):
        alg = RegionAlgebra(Box((0.0, 0.0), (100.0, 100.0)))
        m = make_map(seed=3, states_grid=(3, 3))
        union = alg.join_all(m.states)
        assert alg.eq(union, m.country)

    def test_area_inside_country(self):
        alg = RegionAlgebra(Box((0.0, 0.0), (100.0, 100.0)))
        m = make_map(seed=4)
        assert alg.le(m.area, m.country)

    def test_good_roads_yield_answers(self):
        from repro.database import Session

        q, m = smugglers_query(
            seed=6, n_towns=12, n_roads=12, states_grid=(2, 2)
        )
        answers = Session().run(q, mode="boxplan").answers
        if m.good_road_ids and m.border_town_ids:
            assert answers
            road_ids = {a["R"].oid for a in answers}
            assert road_ids <= set(m.good_road_ids)

    def test_tables(self):
        m = make_map(seed=0, n_towns=5, n_roads=5)
        tables = m.tables()
        assert set(tables) == {"T", "R", "B"}
        assert len(tables["T"]) == 5


class TestWorkloads:
    def test_overlay_query_valid(self):
        q = overlay_query(n_left=10, n_right=10, seed=0)
        assert set(q.unknowns) == {"x", "y"}

    def test_sandwich_query_valid(self):
        q = sandwich_query(n_items=10, seed=0)
        assert q.unknowns == ("x",)
        assert set(q.constants) == {"HI", "LO"}

    def test_containment_chain(self):
        from repro.datagen.workloads import containment_chain_query

        q = containment_chain_query(n_per_table=10, depth=4, seed=0)
        assert len(q.unknowns) == 4

    @pytest.mark.parametrize("index", ["rtree", "scan"])
    def test_tables_are_what_row_by_row_insertion_then_pack_built(self, index):
        """The builders hand their rows to ``bulk_insert`` (one fold, one
        packed build) instead of staging them row by row and packing:
        same rows drawn in the same RNG order, same tree, same reads."""
        from repro.boxes.bconstraints import BoxQuery
        from repro.datagen.workloads import containment_chain_query
        from repro.spatial.table import SpatialTable

        def row_by_row(name, rng, count, universe, *sides):
            table = SpatialTable(name, 2, index=index, universe=universe)
            for i in range(count):
                table.insert(i, Region.from_box(random_box(rng, universe, *sides)))
            table.pack()
            return table

        universe = Box((0.0, 0.0), (100.0, 100.0))
        rng = random.Random(3)
        expect = {
            "overlay": [
                row_by_row("left", rng, 90, universe),
                row_by_row("right", rng, 70, universe),
            ],
        }
        rng = random.Random(3)
        expect["chain"] = [
            row_by_row(f"x{level}", rng, 40, universe, 2.0 * level, 6.0 * level)
            for level in (1, 2, 3)
        ]
        rng = random.Random(3)
        expect["sandwich"] = [row_by_row("items", rng, 80, universe, 2.0, 20.0)]
        got = {
            "overlay": overlay_query(90, 70, seed=3, index=index),
            "chain": containment_chain_query(40, 3, seed=3, index=index),
            "sandwich": sandwich_query(80, seed=3, index=index),
        }
        probe = BoxQuery(overlap=(Box((20.0, 20.0), (45.0, 60.0)),))

        def shape(table):
            table.reset_stats()
            hits = [obj.oid for obj in table.range_query(probe)]
            tree = None
            if table._rtree is not None:
                dump = table._rtree.to_node_arrays(lambda obj: obj.oid)
                tree = dump["leaf"], dump["values"], list(map(repr, dump["bounds"]))
            rows = [(obj.oid, repr(obj.box.lo), repr(obj.box.hi)) for obj in table]
            return table.name, rows, tree, hits, table.index_read_count()

        for key, tables in expect.items():
            built = list(got[key].tables.values())
            assert [shape(t) for t in built] == [shape(t) for t in tables]
            assert {t._version for t in built} == {1}  # the one fold
