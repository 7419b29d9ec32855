"""Tests for the STR-packed R-tree: bulk loading and its read gate."""

import math
import random

from repro.algebra.regions import Region
from repro.boxes.bconstraints import BoxQuery
from repro.boxes.box import Box
from repro.spatial.rtree import RTree
from repro.spatial.table import SpatialTable


def _random_boxes(n, seed=0, span=100.0):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        lo = (rng.uniform(0, span), rng.uniform(0, span))
        out.append(
            Box(lo, (lo[0] + rng.uniform(0.5, 8), lo[1] + rng.uniform(0.5, 8)))
        )
    return out


class TestBulkLoad:
    def test_empty_input(self):
        tree = RTree.bulk_load([])
        assert len(tree) == 0
        assert list(tree.all_entries()) == []

    def test_small_input_single_leaf(self):
        items = _random_boxes(5, seed=1)
        tree = RTree.bulk_load([(b, i) for i, b in enumerate(items)])
        assert len(tree) == 5
        assert tree.height() == 1
        tree.check_invariants()

    def test_invariants_and_contents(self):
        items = _random_boxes(400, seed=3)
        tree = RTree.bulk_load([(b, i) for i, b in enumerate(items)])
        tree.check_invariants()
        assert sorted(v for v in tree.all_entries()) == list(range(400))

    def test_search_agrees_with_incremental(self):
        """The packed tree a table grown row by row ends with (staged
        inserts, inline repacks) answers as one bulk load does."""
        items = _random_boxes(350, seed=7)
        bulk = RTree.bulk_load([(b, i) for i, b in enumerate(items)])
        incr = SpatialTable("t", 2, delta_threshold=32)
        for i, b in enumerate(items):
            incr.insert(i, Region.from_box(b))
        for seed in range(10):
            rng = random.Random(100 + seed)
            lo = (rng.uniform(0, 85), rng.uniform(0, 85))
            q = BoxQuery(overlap=(Box(lo, (lo[0] + 10, lo[1] + 10)),))
            assert {v for v in bulk.search(q)} == {
                o.oid for o in incr.range_query(q)
            } == {i for i, b in enumerate(items) if q.matches(b)}

    def test_bulk_load_is_shallower_or_equal(self):
        """No deeper than the bound on a tree whose nodes are at least
        half full (what an insertion-built tree guarantees)."""
        items = _random_boxes(500, seed=9)
        bulk = RTree.bulk_load(
            [(b, i) for i, b in enumerate(items)], max_entries=8
        )
        assert bulk.height() == 4 <= math.ceil(math.log(500, 8 // 2))

    def test_bulk_load_probes_fewer_nodes(self):
        """STR packing's point: good clustering, few reads per query —
        pinned as exact counts: 125 reads where the quadratic insertion
        tree (since deleted) read 185, under a twelfth of the nodes a
        query."""
        items = _random_boxes(600, seed=11)
        bulk = RTree.bulk_load(
            [(b, i) for i, b in enumerate(items)], max_entries=8
        )
        bulk.stats.reset()
        for seed in range(20):
            rng = random.Random(200 + seed)
            lo = (rng.uniform(0, 90), rng.uniform(0, 90))
            q = BoxQuery(overlap=(Box(lo, (lo[0] + 5, lo[1] + 5)),))
            list(bulk.search(q))
        assert bulk.node_count() == 95
        assert bulk.stats.node_reads == 125 <= 20 * 95 // 12

    def test_bulk_load_supports_insert_after(self):
        """A bulk-loaded table takes inserts after: they stage, show to
        every read at once, and fold into the next packed tree."""
        items = _random_boxes(50, seed=13)
        table = SpatialTable("t", 2)
        table.bulk_insert([(i, Region.from_box(b)) for i, b in enumerate(items)])
        table.insert("extra", Region.from_box(Box((1, 1), (2, 2))))
        assert len(table) == 51 and len(table._rtree) == 50
        q = BoxQuery(overlap=(Box((0.5, 0.5), (1.5, 1.5)),))
        assert "extra" in {o.oid for o in table.range_query(q)}
        assert table.repack() and len(table._rtree) == 51
        assert "extra" in {o.oid for o in table._rtree.search(q)}

    def test_1d_bulk_load(self):
        rng = random.Random(4)
        items = [
            Box((rng.uniform(0, 100),), (rng.uniform(0, 100) + 1,))
            for _ in range(100)
        ]
        items = [Box((min(b.lo[0], b.hi[0] - 1),), (b.hi[0],)) for b in items]
        tree = RTree.bulk_load([(b, i) for i, b in enumerate(items)])
        tree.check_invariants()
        q = BoxQuery(overlap=(Box((20.0,), (30.0,)),))
        expected = {i for i, b in enumerate(items) if q.matches(b)}
        assert {v for v in tree.search(q)} == expected


class TestSTRReadGate:
    """The STR read gate as exact counts (it lived in
    ``benchmarks/ci_smoke.py``): the smugglers join at the join-scaling
    bench's largest scale — 96 towns and roads, a 4x4 state grid, node
    capacity 4 — planned and run on eight maps over STR-packed trees.
    ``INSERTION`` holds the reads of the quadratic-split insertion trees
    the engine had until they were deleted, measured on the same maps;
    the packed reads must stay a fifth or more below them."""

    SEEDS = range(8)
    INSERTION = (366, 423, 358, 475, 638, 535, 514, 449)
    PACKED = (272, 361, 283, 382, 434, 405, 430, 366)

    @staticmethod
    def _node_reads(seed: int) -> int:
        from repro.datagen.workloads import smugglers_query
        from repro.engine.compiler import compile_query
        from repro.engine.executor import execute

        query, _world = smugglers_query(
            seed=seed, n_towns=96, n_roads=96, states_grid=(4, 4),
            node_capacity=4,
        )
        _answers, stats = execute(compile_query(query), "boxplan")
        return stats.node_reads

    def test_str_packing_cuts_node_reads_by_a_fifth(self):
        packed = tuple(self._node_reads(seed) for seed in self.SEEDS)
        assert packed == self.PACKED
        assert sum(packed) <= 0.8 * sum(self.INSERTION)  # 2933 of 3758: 22.0% fewer
