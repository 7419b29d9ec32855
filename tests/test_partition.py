"""The PBSM tile grid and join, and the join-strategy operators."""

import random

import pytest

from repro.boxes.bconstraints import BoxQuery
from repro.boxes.box import Box
from repro.datagen.workloads import smugglers_query
from repro.engine.compiler import compile_query
from repro.engine.executor import answers_as_oid_tuples, execute
from repro.engine.physical import (
    JOIN_STRATEGIES,
    PartitionedSpatialJoin,
    ZOrderJoin,
    build_physical_plan,
)
from repro.errors import OptionError
from repro.spatial.partition import JoinStats, TileGrid, pbsm_join, probe_box
from repro.spatial.rtree import RTree

from tests.conftest import KERNEL_IDS

UNIVERSE = Box((0.0, 0.0), (100.0, 100.0))


def tile_of_point(grid, point):
    """Flat index of the grid tile containing ``point`` (edges clamped):
    the reference-point rule ``pbsm_join``'s array kernel inlines."""
    idx = []
    for d, (p, lo, s) in enumerate(zip(point, grid.extent.lo, grid.steps)):
        i = int((p - lo) / s) if s > 0 else 0
        idx.append(min(grid.shape[d] - 1, max(0, i)))
    return grid._flat(idx)


def _random_boxes(n, seed=0, span=92.0, max_side=8.0):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        lo = (rng.uniform(0, span), rng.uniform(0, span))
        out.append(
            Box(
                lo,
                (
                    lo[0] + rng.uniform(0.5, max_side),
                    lo[1] + rng.uniform(0.5, max_side),
                ),
            )
        )
    return out


class TestProbeBox:
    def test_single_constraints(self):
        a = Box((0, 0), (10, 10))
        assert probe_box(BoxQuery(inside=a), UNIVERSE) == a
        assert probe_box(BoxQuery(covers=a), UNIVERSE) == a
        assert probe_box(BoxQuery(overlap=(a,)), UNIVERSE) == a

    def test_picks_smallest(self):
        small = Box((0, 0), (1, 1))
        big = Box((0, 0), (50, 50))
        assert probe_box(
            BoxQuery(inside=big, overlap=(small,)), UNIVERSE
        ) == small

    def test_trivial_query_degrades_to_extent(self):
        assert probe_box(BoxQuery(), UNIVERSE) == UNIVERSE

    def test_necessary_condition(self):
        """Any box matching the query overlaps its probe box."""
        rng = random.Random(8)
        boxes = _random_boxes(80, seed=2)
        for trial in range(25):
            lo = (rng.uniform(0, 80), rng.uniform(0, 80))
            probe = Box(lo, (lo[0] + rng.uniform(2, 20), lo[1] + 10.0))
            query = rng.choice(
                [
                    BoxQuery(overlap=(probe,)),
                    BoxQuery(inside=probe),
                    BoxQuery(inside=Box((0, 0), (60, 60)), overlap=(probe,)),
                ]
            )
            p = probe_box(query, UNIVERSE)
            for b in boxes:
                if query.matches(b):
                    assert b.overlaps(p)

class TestTileGrid:
    def test_shape_and_count(self):
        grid = TileGrid.build([UNIVERSE], 16)
        assert grid.tile_count == 16
        assert grid.shape == (4, 4)

    def test_build_empty(self):
        assert TileGrid.build([], 8) is None

    def test_reference_point_tile_is_among_overlapping(self):
        grid = TileGrid.build([UNIVERSE], 9)
        for b in _random_boxes(50, seed=6):
            tiles = grid.tiles_overlapping(b)
            assert tiles
            assert tile_of_point(grid, b.lo) in tiles


class TestPBSMJoin:
    def _sides(self, n, seeds=(1, 2)):
        return (
            [(b, i) for i, b in enumerate(_random_boxes(n, seed=seeds[0]))],
            [(b, j) for j, b in enumerate(_random_boxes(n, seed=seeds[1]))],
        )

    def test_matches_brute_force(self):
        left, right = self._sides(120)
        brute = sorted(
            (lv, rv)
            for lb, lv in left
            for rb, rv in right
            if lb.overlaps(rb)
        )
        for tiles in (1, 4, 16, 40):
            assert pbsm_join(left, right, n_tiles=tiles) == brute

    def test_no_boundary_duplicates(self):
        left, right = self._sides(150, seeds=(5, 6))
        stats = JoinStats()
        pairs = pbsm_join(left, right, n_tiles=25, stats=stats)
        assert len(pairs) == len(set(pairs))
        assert stats.dedup_skipped > 0  # replication really happened
        assert stats.pairs == len(pairs)

    def test_empty_sides(self):
        left, _right = self._sides(10)
        assert pbsm_join(left, [], n_tiles=4) == []
        assert pbsm_join([], left, n_tiles=4) == []


class TestPBSMExactCounts:
    """PBSM against the index-nested-loop join, as exact counts.

    Two 300-box sides (small random rectangles in a 100 × 100
    universe) over 64 tiles.  Both joins must return the same 815
    pairs; PBSM's plane sweeps test 2 353 candidate pairs where the
    R-tree probes test 9 941 entries — the regime where PBSM wins.
    """

    @staticmethod
    def _entries(seed, n):
        rng = random.Random(seed)
        out = []
        for i in range(n):
            lo = (rng.uniform(0, 92.0), rng.uniform(0, 92.0))
            hi = (lo[0] + rng.uniform(1, 8), lo[1] + rng.uniform(1, 8))
            out.append((Box(lo, hi), i))
        return out

    @pytest.mark.parametrize("backend", KERNEL_IDS)
    def test_pbsm_counts_against_index_nested_loop(self, backend):
        left = self._entries(300, 300)
        right = self._entries(301, 300)
        tree = RTree.bulk_load(right, max_entries=8)
        tree.stats.reset()
        inl = sorted(
            (value, other)
            for box, value in left
            for other in tree.search(BoxQuery(overlap=(box,)))
        )
        stats = JoinStats()
        pairs = pbsm_join(left, right, n_tiles=64, stats=stats)
        assert len(inl) == 815
        assert pairs == inl
        assert tree.stats.entry_tests == 9941
        assert stats.pair_tests == 2353
        assert stats.tiles == 64
        assert stats.dedup_skipped == 353
        assert stats.pairs == 815

    def test_pbsm_tests_and_dups_against_bruteforce(self):
        """A tile's sweep tests each pair of its boxes whose dim-0
        intervals strictly overlap, and skips each overlapping pair whose
        reference point (the intersection's lower corner) lies in
        another tile: counted here pair by pair over the same grid."""
        left = self._entries(300, 300)
        right = self._entries(301, 300)
        grid = TileGrid.build([b for b, _ in left + right], 64)
        tests = dups = 0
        for tile in range(grid.tile_count):
            ls = [b for b, _ in left if tile in grid.tiles_overlapping(b)]
            rs = [b for b, _ in right if tile in grid.tiles_overlapping(b)]
            for lb in ls:
                for rb in rs:
                    if lb.lo[0] < rb.hi[0] and rb.lo[0] < lb.hi[0]:
                        tests += 1
                        ref = tuple(map(max, lb.lo, rb.lo))
                        dups += lb.overlaps(rb) and tile_of_point(grid, ref) != tile
        stats = JoinStats()
        pbsm_join(left, right, n_tiles=64, stats=stats)
        assert (stats.pair_tests, stats.dedup_skipped) == (tests, dups) == (2353, 353)


class TestPartitionedOperators:
    """The partition-aware physical plans return the classic answers."""

    def _plan(self, index="rtree", size=18):
        query, _world = smugglers_query(
            seed=11, n_towns=size, n_roads=size, states_grid=(3, 3),
            index=index,
        )
        return compile_query(query)

    def test_all_strategies_agree(self):
        plan = self._plan()
        order = list(plan.order)
        reference = answers_as_oid_tuples(
            execute(plan, "boxplan")[0], order
        )
        assert reference  # non-trivial workload
        for strategy in ("probe", "pbsm", "zorder"):
            pplan = build_physical_plan(
                plan,
                "boxplan",
                estimate=False,
                partitions=5,
                join_strategy=strategy,
            )
            answers, _stats = pplan.run()
            assert answers_as_oid_tuples(answers, order) == reference, (
                strategy
            )

    def test_explain_renders_partition_operators(self):
        plan = self._plan(size=10)
        pplan = build_physical_plan(
            plan, "boxplan", partitions=4, join_strategy="pbsm"
        )
        pplan.run()
        text = pplan.explain()
        assert "PartitionedSpatialJoin" in text
        assert "tiles=4" in text
        assert "partitions=4" in text

    def test_boxonly_mode_supports_strategies(self):
        plan = self._plan(size=10)
        order = list(plan.order)
        reference = answers_as_oid_tuples(execute(plan, "boxonly")[0], order)
        for strategy in ("pbsm", "zorder", "probe"):
            answers, _ = build_physical_plan(
                plan, "boxonly", partitions=4, join_strategy=strategy
            ).run()
            assert answers_as_oid_tuples(answers, order) == reference

    def test_unknown_strategy_rejected(self):
        plan = self._plan(size=8)
        with pytest.raises(ValueError):
            build_physical_plan(plan, "boxplan", join_strategy="hashjoin")

    def test_partition_strategy_is_rejected(self):
        """``"partition"`` is no join strategy: the typed error names
        the three there are."""
        assert JOIN_STRATEGIES == ("probe", "pbsm", "zorder")
        plan = self._plan(size=8)
        with pytest.raises(OptionError, match="'probe', 'pbsm', 'zorder'"):
            build_physical_plan(plan, "boxplan", join_strategy="partition")

    def test_explicit_strategy_rejected_in_nonbox_modes(self):
        plan = self._plan(size=8)
        for mode in ("naive", "exact"):
            with pytest.raises(ValueError, match="box modes"):
                build_physical_plan(plan, mode, join_strategy="pbsm")
            # The probe, whatever the tile target, is every mode's.
            build_physical_plan(plan, mode, join_strategy="probe", partitions=4)

    def test_misshapen_strategy_options_rejected(self):
        """One name runs every step: a per-variable list or mapping, the
        cost-based ``"auto"`` and ``None`` are gone."""
        plan = self._plan(size=8)  # three retrieval steps
        first = plan.order[0]
        for option in (["pbsm", "zorder", "probe"], {first: "pbsm"}, "auto", None):
            with pytest.raises(OptionError, match="unknown join strategy"):
                build_physical_plan(plan, "boxplan", join_strategy=option)
        pplan = build_physical_plan(plan, "boxplan", join_strategy="pbsm")
        assert pplan.join_strategy == "pbsm"
        assert {type(ops.extend) for ops in pplan.step_ops} == {PartitionedSpatialJoin}

    def test_operator_classes_exported(self):
        assert PartitionedSpatialJoin.kind == "PartitionedSpatialJoin"
        assert ZOrderJoin.kind == "ZOrderJoin"
