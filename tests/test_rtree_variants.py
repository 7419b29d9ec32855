"""Tests for R-tree variants: linear split and STR bulk loading."""

import random

import pytest

from repro.boxes import Box, BoxQuery
from repro.spatial import RTree


def _random_boxes(n, seed=0, span=100.0):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        lo = (rng.uniform(0, span), rng.uniform(0, span))
        out.append(
            Box(lo, (lo[0] + rng.uniform(0.5, 8), lo[1] + rng.uniform(0.5, 8)))
        )
    return out


class TestLinearSplit:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            RTree(split_method="cubic")

    def test_invariants_hold(self):
        tree = RTree(max_entries=4, split_method="linear")
        for i, b in enumerate(_random_boxes(250, seed=2)):
            tree.insert(b, i)
        tree.check_invariants()
        assert len(tree) == 250

    def test_search_agrees_with_quadratic(self):
        items = _random_boxes(300, seed=5)
        quad = RTree(max_entries=6, split_method="quadratic")
        lin = RTree(max_entries=6, split_method="linear")
        for i, b in enumerate(items):
            quad.insert(b, i)
            lin.insert(b, i)
        for seed in range(12):
            rng = random.Random(seed)
            lo = (rng.uniform(0, 90), rng.uniform(0, 90))
            probe = Box(lo, (lo[0] + 15, lo[1] + 15))
            q = BoxQuery(overlap=(probe,))
            got_q = {v for _b, v in quad.search(q)}
            got_l = {v for _b, v in lin.search(q)}
            expected = {i for i, b in enumerate(items) if q.matches(b)}
            assert got_q == expected
            assert got_l == expected


class TestRStarSplit:
    def test_invariants_hold(self):
        tree = RTree(max_entries=4, split_method="rstar")
        for i, b in enumerate(_random_boxes(250, seed=21)):
            tree.insert(b, i)
        tree.check_invariants()
        assert len(tree) == 250

    def test_forced_reinserts_fire(self):
        tree = RTree(max_entries=6, split_method="rstar")
        for i, b in enumerate(_random_boxes(300, seed=22)):
            tree.insert(b, i)
        assert tree.stats.reinserts > 0
        assert len(tree) == 300

    def test_search_agrees_with_quadratic(self):
        items = _random_boxes(300, seed=23)
        quad = RTree(max_entries=6, split_method="quadratic")
        rstar = RTree(max_entries=6, split_method="rstar")
        for i, b in enumerate(items):
            quad.insert(b, i)
            rstar.insert(b, i)
        for seed in range(12):
            rng = random.Random(seed)
            lo = (rng.uniform(0, 90), rng.uniform(0, 90))
            q = BoxQuery(overlap=(Box(lo, (lo[0] + 12, lo[1] + 12)),))
            expected = {i for i, b in enumerate(items) if q.matches(b)}
            assert {v for _b, v in rstar.search(q)} == expected
            assert {v for _b, v in quad.search(q)} == expected

    def test_rstar_reads_no_more_than_quadratic(self):
        """Forced reinserts + topological split: tighter clustering."""
        items = _random_boxes(600, seed=24)
        quad = RTree(max_entries=6, split_method="quadratic")
        rstar = RTree(max_entries=6, split_method="rstar")
        for i, b in enumerate(items):
            quad.insert(b, i)
            rstar.insert(b, i)
        quad.stats.reset()
        rstar.stats.reset()
        for seed in range(25):
            rng = random.Random(300 + seed)
            lo = (rng.uniform(0, 90), rng.uniform(0, 90))
            q = BoxQuery(overlap=(Box(lo, (lo[0] + 5, lo[1] + 5)),))
            list(quad.search(q))
            list(rstar.search(q))
        assert rstar.stats.node_reads <= quad.stats.node_reads

    def test_empty_boxes_legal(self):
        from repro.boxes.box import EMPTY_BOX

        tree = RTree(max_entries=4, split_method="rstar")
        for i in range(20):
            tree.insert(EMPTY_BOX, f"e{i}")
        for i, b in enumerate(_random_boxes(60, seed=25)):
            tree.insert(b, i)
        tree.check_invariants()
        assert len(tree) == 80

    def test_delete_after_rstar_build(self):
        items = _random_boxes(120, seed=26)
        tree = RTree(max_entries=4, split_method="rstar")
        for i, b in enumerate(items):
            tree.insert(b, i)
        assert tree.delete(items[5], 5)
        assert not tree.delete(items[5], 5)
        assert len(tree) == 119
        tree.check_invariants()


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
        assert sorted(v for _b, v in tree.all_entries()) == list(range(400))

    def test_search_agrees_with_incremental(self):
        items = _random_boxes(350, seed=7)
        bulk = RTree.bulk_load([(b, i) for i, b in enumerate(items)])
        incr = RTree(max_entries=8)
        for i, b in enumerate(items):
            incr.insert(b, i)
        for seed in range(10):
            rng = random.Random(100 + seed)
            lo = (rng.uniform(0, 85), rng.uniform(0, 85))
            q = BoxQuery(overlap=(Box(lo, (lo[0] + 10, lo[1] + 10)),))
            assert {v for _b, v in bulk.search(q)} == {
                v for _b, v in incr.search(q)
            }

    def test_bulk_load_is_shallower_or_equal(self):
        items = _random_boxes(500, seed=9)
        bulk = RTree.bulk_load(
            [(b, i) for i, b in enumerate(items)], max_entries=8
        )
        incr = RTree(max_entries=8)
        for i, b in enumerate(items):
            incr.insert(b, i)
        assert bulk.height() <= incr.height()

    def test_bulk_load_probes_fewer_nodes(self):
        """STR packing's point: better clustering, fewer reads/query."""
        items = _random_boxes(600, seed=11)
        bulk = RTree.bulk_load(
            [(b, i) for i, b in enumerate(items)], max_entries=8
        )
        incr = RTree(max_entries=8)
        for i, b in enumerate(items):
            incr.insert(b, i)
        bulk.stats.reset()
        incr.stats.reset()
        for seed in range(20):
            rng = random.Random(200 + seed)
            lo = (rng.uniform(0, 90), rng.uniform(0, 90))
            q = BoxQuery(overlap=(Box(lo, (lo[0] + 5, lo[1] + 5)),))
            list(bulk.search(q))
            list(incr.search(q))
        assert bulk.stats.node_reads <= incr.stats.node_reads

    def test_bulk_load_supports_insert_after(self):
        items = _random_boxes(50, seed=13)
        tree = RTree.bulk_load([(b, i) for i, b in enumerate(items)])
        extra = Box((1, 1), (2, 2))
        tree.insert(extra, "extra")
        assert len(tree) == 51
        q = BoxQuery(overlap=(Box((0.5, 0.5), (1.5, 1.5)),))
        assert "extra" in {v for _b, v in tree.search(q)}

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
        assert {v for _b, v in tree.search(q)} == expected


class TestSTRReadGate:
    """The STR-vs-insertion gate as exact counts (it lived in
    ``benchmarks/ci_smoke.py``): the smugglers join at the join-scaling
    bench's largest scale — 96 towns and roads, a 4x4 state grid, node
    capacity 4 — planned and run on eight maps, once over STR-packed
    trees and once over insertion-built ones.  Both kinds are read by
    the one search over the array form, so the difference is the
    packing alone; it must stay at a fifth of the reads or more."""

    SEEDS = range(8)
    INSERTION = (366, 423, 358, 475, 638, 535, 514, 449)
    PACKED = (272, 361, 283, 382, 434, 405, 430, 366)

    @staticmethod
    def _node_reads(seed: int, pack: bool) -> int:
        from repro.datagen import smugglers_query
        from repro.engine import compile_query, execute

        query, _world = smugglers_query(
            seed=seed, n_towns=96, n_roads=96, states_grid=(4, 4),
            node_capacity=4, pack=pack,
        )
        _answers, stats = execute(compile_query(query), "boxplan")
        return stats.node_reads

    def test_str_packing_cuts_node_reads_by_a_fifth(self):
        insertion = tuple(self._node_reads(seed, pack=False) for seed in self.SEEDS)
        packed = tuple(self._node_reads(seed, pack=True) for seed in self.SEEDS)
        assert (insertion, packed) == (self.INSERTION, self.PACKED)
        assert sum(packed) <= 0.8 * sum(insertion)  # 2933 of 3758: 22.0% fewer
