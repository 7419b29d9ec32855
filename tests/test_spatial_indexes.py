"""Tests for the R-tree and grid file, incl. backend agreement."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from reference_rtree import check_invariants as check_node_invariants, root_of
from repro.database import Database
from repro.algebra.regions import Region
from repro.boxes.bconstraints import BoxQuery
from repro.boxes.box import EMPTY_BOX, Box
from repro.datagen.maps import make_map
from repro.datagen.workloads import smugglers_query
from repro.errors import DimensionMismatchError
from repro.spatial.gridfile import GridFile
from repro.spatial.rtree import RTree
from repro.spatial.table import SpatialTable


def _random_boxes(n, seed=0, span=100.0):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        lo = (rng.uniform(0, span), rng.uniform(0, span))
        size = (rng.uniform(0.5, 10), rng.uniform(0.5, 10))
        out.append(Box(lo, (lo[0] + size[0], lo[1] + size[1])))
    return out


def _grown_table(items, capacity=4, threshold=16):
    """A table grown row by row through ``insert`` — the one write path:
    staged, repacked inline every ``threshold`` rows — then folded."""
    t = SpatialTable("t", 2, node_capacity=capacity, delta_threshold=threshold)
    for i, b in enumerate(items):
        t.insert(i, Region.from_box(b))
    t.repack()
    return t


class TestRTreeStructure:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RTree(max_entries=1)
        with pytest.raises(ValueError):
            RTree.bulk_load([(Box((0.0, 0.0), (1.0, 1.0)), 0)], max_entries=1)

    def test_insert_grows_and_invariants_hold(self):
        t = _grown_table(_random_boxes(200))
        assert len(t) == len(t._rtree) == 200 and t.repacks == 13
        t._rtree.check_invariants()
        assert t._rtree.height() >= 3

    def test_all_entries_roundtrip(self):
        items = _random_boxes(50)
        tree = RTree.bulk_load([(b, i) for i, b in enumerate(items)], max_entries=4)
        got = sorted(v for v in tree.all_entries())
        assert got == list(range(50))

    def test_delete(self):
        t = _grown_table(_random_boxes(60))
        for i in range(0, 60, 2):
            t.delete(i)
        t.repack()
        assert len(t) == len(t._rtree) == 30
        t._rtree.check_invariants()
        got = sorted(obj.oid for obj in t._rtree.all_entries())
        assert got == list(range(1, 60, 2))
        with pytest.raises(KeyError):
            t.delete(0)  # already gone
        assert not t.stage_delete(0)

    def test_delete_to_empty(self):
        t = _grown_table(_random_boxes(20))
        for i in range(20):
            t.delete(i)
        t.repack()
        assert len(t) == len(t._rtree) == 0
        assert list(t._rtree.all_entries()) == []


class TestRTreeSearch:
    def setup_method(self):
        self.items = _random_boxes(300, seed=7)
        self.tree = RTree.bulk_load(
            [(b, i) for i, b in enumerate(self.items)], max_entries=6
        )

    def _scan(self, query):
        return {
            i for i, b in enumerate(self.items) if query.matches(b)
        }

    def test_overlap_query(self):
        q = BoxQuery(overlap=(Box((20, 20), (40, 40)),))
        got = {v for v in self.tree.search(q)}
        assert got == self._scan(q)
        assert got  # non-trivial

    def test_containment_query(self):
        q = BoxQuery(inside=Box((0, 0), (50, 50)))
        got = {v for v in self.tree.search(q)}
        assert got == self._scan(q)

    def test_covers_query(self):
        target = self.items[13]
        inner = Box(
            tuple(c + 0.1 for c in target.lo),
            tuple(c - 0.1 for c in target.hi),
        )
        q = BoxQuery(covers=inner)
        got = {v for v in self.tree.search(q)}
        assert 13 in got
        assert got == self._scan(q)

    def test_combined_query(self):
        q = BoxQuery(
            inside=Box((0, 0), (60, 60)),
            overlap=(Box((10, 10), (30, 30)), Box((5, 5), (50, 50))),
        )
        got = {v for v in self.tree.search(q)}
        assert got == self._scan(q)

    def test_unsatisfiable_short_circuits(self):
        self.tree.stats.reset()
        q = BoxQuery(overlap=(EMPTY_BOX,))
        assert list(self.tree.search(q)) == []
        assert self.tree.stats.node_reads == 0

    def test_search_reads_fewer_nodes_than_scan(self):
        self.tree.stats.reset()
        q = BoxQuery(overlap=(Box((20, 20), (22, 22)),))
        list(self.tree.search(q))
        # A selective query must not visit every leaf entry.
        assert self.tree.stats.node_reads < len(self.items) / 2

    @given(st.integers(0, 2**30))
    @settings(max_examples=20, deadline=None)
    def test_random_queries_agree_with_scan(self, seed):
        rng = random.Random(seed)
        lo = (rng.uniform(0, 90), rng.uniform(0, 90))
        hi = (lo[0] + rng.uniform(1, 30), lo[1] + rng.uniform(1, 30))
        probe = Box(lo, hi)
        kind = rng.choice(["overlap", "inside", "covers"])
        if kind == "overlap":
            q = BoxQuery(overlap=(probe,))
        elif kind == "inside":
            q = BoxQuery(inside=probe)
        else:
            q = BoxQuery(covers=Box(lo, (lo[0] + 0.2, lo[1] + 0.2)))
        got = {v for v in self.tree.search(q)}
        assert got == self._scan(q)


class TestGridFile:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GridFile(0)
        with pytest.raises(ValueError):
            GridFile(2, bucket_capacity=1)

    def test_insert_and_exact_search(self):
        g = GridFile(2, bucket_capacity=4)
        g.insert((1.0, 2.0), "a")
        g.insert((1.0, 2.0), "b")
        g.insert((3.0, 4.0), "c")
        assert sorted(g.exact_search((1.0, 2.0))) == ["a", "b"]
        assert list(g.exact_search((9.0, 9.0))) == []

    def test_dimension_checked(self):
        g = GridFile(2)
        with pytest.raises(DimensionMismatchError):
            g.insert((1.0,), "a")
        with pytest.raises(DimensionMismatchError):
            list(g.range_search((0,), (1,)))

    def test_splits_maintain_invariants(self):
        rng = random.Random(3)
        g = GridFile(2, bucket_capacity=4)
        pts = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(300)]
        for i, p in enumerate(pts):
            g.insert(p, i)
        g.check_invariants()
        assert len(g) == 300
        assert g.stats.splits > 0
        shape = g.directory_shape()
        assert all(s >= 2 for s in shape)

    def test_duplicate_points_dont_livelock(self):
        g = GridFile(2, bucket_capacity=2)
        for i in range(20):
            g.insert((5.0, 5.0), i)
        assert len(g) == 20
        assert sorted(g.exact_search((5.0, 5.0))) == list(range(20))

    def test_degenerate_bucket_records_skipped_splits(self):
        """All-duplicate points leave one oversized bucket: the silent
        `_split_bucket` give-up is now counted, and queries stay
        correct over the oversized bucket."""
        g = GridFile(2, bucket_capacity=4)
        for i in range(30):
            g.insert((7.0, 7.0), i)
        assert g.stats.skipped_splits > 0
        assert g.stats.splits == 0  # nothing separable, ever
        # The single bucket is oversized but addressing is intact.
        g.check_invariants()
        assert sorted(g.exact_search((7.0, 7.0))) == list(range(30))
        got = {v for _p, v in g.range_search((6.0, 6.0), (8.0, 8.0))}
        assert got == set(range(30))
        assert list(g.range_search((8.5, 8.5), (9.0, 9.0))) == []

    def test_skipped_splits_with_mixed_population(self):
        """A separable dimension is still found when one exists — the
        skip counter only fires when every dimension is degenerate."""
        g = GridFile(2, bucket_capacity=2)
        for i in range(8):
            g.insert((1.0, float(i)), i)  # dim 0 degenerate, dim 1 fine
        assert g.stats.splits > 0
        got = {v for _p, v in g.range_search((0.0, 0.0), (2.0, 3.0))}
        assert got == {0, 1, 2, 3}
        g.stats.reset()
        assert g.stats.skipped_splits == 0

    def test_delete(self):
        g = GridFile(2, bucket_capacity=4)
        g.insert((1.0, 1.0), "a")
        assert g.delete((1.0, 1.0), "a")
        assert not g.delete((1.0, 1.0), "a")
        assert len(g) == 0

    def test_range_search_agrees_with_scan(self):
        rng = random.Random(11)
        g = GridFile(2, bucket_capacity=8)
        pts = [(rng.uniform(0, 50), rng.uniform(0, 50)) for _ in range(400)]
        for i, p in enumerate(pts):
            g.insert(p, i)
        for _ in range(25):
            lo = (rng.uniform(0, 45), rng.uniform(0, 45))
            hi = (lo[0] + rng.uniform(0, 20), lo[1] + rng.uniform(0, 20))
            got = {v for _p, v in g.range_search(lo, hi)}
            expected = {
                i
                for i, p in enumerate(pts)
                if lo[0] <= p[0] <= hi[0] and lo[1] <= p[1] <= hi[1]
            }
            assert got == expected

    def test_grid_table_index_is_rejected(self):
        """The grid file is no table index: ``index="grid"`` is a
        construction error naming the two backends."""
        assert SpatialTable.VALID_INDEXES == ("rtree", "scan")
        with pytest.raises(ValueError, match=r"'grid'.*\('rtree', 'scan'\)"):
            SpatialTable("t", 2, index="grid", universe=Box((0, 0), (50, 50)))

    def test_range_search_visits_subset_of_cells(self):
        rng = random.Random(5)
        g = GridFile(2, bucket_capacity=4)
        for i in range(500):
            g.insert((rng.uniform(0, 100), rng.uniform(0, 100)), i)
        g.stats.reset()
        list(g.range_search((10, 10), (12, 12)))
        total_cells = 1
        for s in g.directory_shape():
            total_cells *= s
        assert g.stats.cell_visits < total_cells


class TestBulkInsertContract:
    """`SpatialTable.bulk_insert`: one fold, and its failure paths."""

    UNIVERSE = Box((0.0, 0.0), (50.0, 50.0))

    def _rows(self, n=10, seed=2):
        rng = random.Random(seed)
        out = []
        for i in range(n):
            lo = (rng.uniform(0, 40), rng.uniform(0, 40))
            out.append(
                (i, Region.from_box(Box(lo, (lo[0] + 3, lo[1] + 3))))
            )
        return out

    @pytest.mark.parametrize("index", ["scan"])
    def test_default_pack_resolves_to_insertion(self, index):
        t = SpatialTable("t", 2, index=index, universe=self.UNIVERSE)
        t.bulk_insert(self._rows())
        assert len(t) == 10 and not t.delta_pending
        got = t.range_query(BoxQuery(overlap=(self.UNIVERSE,)))
        assert sorted(o.oid for o in got) == list(range(10))

    def test_rtree_pack_still_default(self):
        t = SpatialTable("t", 2, universe=self.UNIVERSE)
        t.bulk_insert(self._rows())
        assert len(t) == 10
        t.bulk_insert([(100, Region.from_box(Box((1, 1), (2, 2))))], pack=True)
        assert len(t) == 11 and len(t._rtree) == 11 and not t.delta_pending

    def test_mid_failure_leaves_partial_rows_indexed(self):
        """A failing row aborts the bulk insert, but the `finally`
        fold must index every row that made it in."""
        t = SpatialTable("t", 2, universe=self.UNIVERSE)
        rows = self._rows(6)
        poisoned = rows[:3] + [(0, rows[3][1])] + rows[4:]  # dup oid 0
        with pytest.raises(ValueError, match="duplicate"):
            t.bulk_insert(poisoned, pack=True)
        assert len(t) == 3 and not t.delta_pending
        got = t.range_query(BoxQuery(overlap=(self.UNIVERSE,)))
        assert sorted(o.oid for o in got) == [0, 1, 2]
        # The rebuilt index is a packed, consistent r-tree.
        assert len(t._rtree) == 3
        t._rtree.check_invariants()

    def test_mid_failure_unpacked_path(self):
        """The same on a scan table, which has no r-tree to pack: the
        fold rebuilds its column store over the rows that made it in."""
        t = SpatialTable("t", 2, index="scan", universe=self.UNIVERSE)
        rows = self._rows(5)
        poisoned = rows[:2] + [(1, rows[2][1])]
        with pytest.raises(ValueError, match="duplicate"):
            t.bulk_insert(poisoned)
        assert not t.delta_pending and len(t._columns) == 2
        got = t.range_query(BoxQuery(overlap=(self.UNIVERSE,)))
        assert sorted(o.oid for o in got) == [0, 1]


class TestRTreeDeleteStats:
    """Deletes go through the table's one write path: the tree a repack
    packs holds exactly the live rows, and its cached subtree counts
    (the COUNT pushdown) are fresh."""

    def test_interleaved_insert_delete_search_invariants(self):
        """Interleave inserts, deletes and searches, repacking inline
        every 16 writes; the tree stays consistent, the height never
        lies, and the cached subtree counts track every repack."""
        rng = random.Random(11)
        t = SpatialTable("t", 2, node_capacity=4, delta_threshold=16)
        live = {}
        boxes = _random_boxes(300, seed=5)
        universe = Box((-1000.0, -1000.0), (1000.0, 1000.0))
        next_id = 0
        for step in range(400):
            action = rng.random()
            if action < 0.55 or not live:
                b = boxes[next_id % len(boxes)]
                t.insert(next_id, Region.from_box(b))
                live[next_id] = b
                next_id += 1
            elif action < 0.85:
                victim = rng.choice(sorted(live))
                t.delete(victim)
                del live[victim]
            else:
                probe = boxes[rng.randrange(len(boxes))]
                got = {o.oid for o in t.range_query(BoxQuery(overlap=(probe,)))}
                assert got == {v for v, b in live.items() if b.overlaps(probe)}
            if step % 50 == 0:
                assert len(t) == len(live)
                tree = t._rtree
                tree.check_invariants()
                check_node_invariants(tree)  # the frozen node walk agrees
                # height() must reflect the real single-path depth.
                depths = set()

                def walk(node, d):
                    if node.leaf:
                        depths.add(d)
                        return
                    for _b, child in node.entries:
                        walk(child, d + 1)

                walk(root_of(tree), 1)
                assert depths == {tree.height()}, "leaves off-depth"
                # Subtree counts are the base's; the overlay corrects them.
                assert tree.count(BoxQuery(inside=universe)) == len(tree)
                assert t.count_range(BoxQuery(inside=universe)) == len(live)
        assert t.repacks > 0

    def test_delete_keeps_count_cache_fresh(self):
        t = _grown_table(_random_boxes(40, seed=9))
        universe = Box((-1000.0, -1000.0), (1000.0, 1000.0))
        assert t._rtree.count(BoxQuery(inside=universe)) == 40
        for i in range(0, 40, 2):
            t.delete(i)
        assert t.count_range(BoxQuery(inside=universe)) == 20
        t.repack()
        assert t._rtree.count(BoxQuery(inside=universe)) == 20
        assert t._rtree.height() >= 1
        t._rtree.check_invariants()


class TestDeltaTombstoneIndexInvariants:
    """Delta tombstones over a packed r-tree (the one write path).

    Tombstones must never touch the base tree's cached subtree
    ``count()``/``node_count()`` (readers of the base stay consistent),
    the overlay-corrected ``count_range`` must track the live view, and
    every repack, a pure-delete one too, packs a fresh tree beside the
    old one.
    """

    UNIVERSE = Box((-1000.0, -1000.0), (1000.0, 1000.0))

    def _table(self, n=80, seed=13):
        t = SpatialTable("t", 2, index="rtree", delta_threshold=10_000)
        boxes = _random_boxes(n, seed=seed)
        t.bulk_insert(
            [(i, Region.from_box(b)) for i, b in enumerate(boxes)]
        )
        return t, boxes

    def test_tombstones_leave_base_tree_counts_untouched(self):
        t, boxes = self._table()
        base_count = t._rtree.count(BoxQuery(inside=self.UNIVERSE))
        base_nodes = t._rtree.node_count()
        for i in range(0, 30, 3):
            t.delete(i)
        # The packed base is immutable under the delta: same tree, same
        # cached subtree counts, no hidden structural mutation.
        assert t._rtree.count(BoxQuery(inside=self.UNIVERSE)) == base_count
        assert t._rtree.node_count() == base_nodes
        t._rtree.check_invariants()
        # The live count subtracts tombstones without probing the base
        # rows one by one.
        assert t.count_range(BoxQuery(inside=self.UNIVERSE)) == len(t)

    def test_interleaved_delta_mutations_track_live_counts(self):
        rng = random.Random(17)
        t, boxes = self._table(n=60, seed=21)
        live = {i: b for i, b in enumerate(boxes)}
        next_id = len(boxes)
        for step in range(200):
            action = rng.random()
            if action < 0.45:
                b = _random_boxes(1, seed=1000 + next_id)[0]
                t.stage_insert(next_id, Region.from_box(b))
                live[next_id] = b
                next_id += 1
            elif action < 0.75 and live:
                victim = rng.choice(sorted(live))
                del live[victim]
                t.delete(victim)
            else:
                probe = boxes[rng.randrange(len(boxes))]
                q = BoxQuery(overlap=(probe,))
                want = {v for v, b in live.items() if b.overlaps(probe)}
                assert {o.oid for o in t.range_query(q)} == want
                assert t.count_range(q) == len(want)
            if step % 40 == 0:
                assert len(t) == len(live)
                t._rtree.check_invariants()
        # Folding the delta must land exactly on the live view, with a
        # fresh tree whose cached counts match.
        t.repack()
        assert len(t) == len(live)
        assert t._rtree.count(BoxQuery(inside=self.UNIVERSE)) == len(
            [b for b in live.values() if not b.is_empty()]
        )
        t._rtree.check_invariants()

    @pytest.mark.parametrize("n, deleted", [(80, 5), (24, 12)])
    def test_pure_delete_repack_rebuilds(self, n, deleted):
        """An all-tombstone delta, however small, folds like any other:
        one STR build beside the old tree, which nobody edits (readers
        pinned to it finish against what they started on)."""
        t, _boxes = self._table(n=n)
        tree_before = t._rtree
        reads_before = tree_before.count(BoxQuery(inside=self.UNIVERSE))
        for i in range(deleted):
            t.delete(i)
        assert t.repack()
        assert t._rtree is not tree_before
        assert tree_before.count(BoxQuery(inside=self.UNIVERSE)) == reads_before
        assert t._rtree.count(BoxQuery(inside=self.UNIVERSE)) == len(t) == n - deleted
        t._rtree.check_invariants()

    def test_staged_insert_repack_always_rebuilds(self):
        t, _boxes = self._table(n=20)
        tree_before = t._rtree
        t.stage_insert(999, Region.from_box(Box((0.0, 0.0), (1.0, 1.0))))
        t.delete(0)
        assert t.repack()
        assert t._rtree is not tree_before
        assert t._rtree.count(BoxQuery(inside=self.UNIVERSE)) == 20
        t._rtree.check_invariants()


class TestGridFileSkippedSplitPaths:
    """The remaining `_split_bucket` give-up paths (satellite coverage)."""

    def test_existing_scale_coordinate_is_skipped(self):
        """A bucket whose only viable cut is already a scale coordinate
        gives up (the `median in scales` branch) instead of looping."""
        g = GridFile(1, bucket_capacity=2)
        for i in range(3):
            g.insert((1.0,), i)  # first overflow: cut above the low run
        for i in range(3, 9):
            g.insert((0.0,), i)
        # The (0.0, 1.0) bucket can only cut at 1.0 — already a scale.
        assert g.stats.skipped_splits > 0
        g.check_invariants()
        assert sorted(g.exact_search((0.0,))) == list(range(3, 9))
        assert sorted(g.exact_search((1.0,))) == [0, 1, 2]

    def test_reset_clears_skipped_splits(self):
        g = GridFile(2, bucket_capacity=2)
        for i in range(6):
            g.insert((3.0, 3.0), i)
        assert g.stats.skipped_splits > 0
        g.stats.reset()
        assert g.stats.skipped_splits == 0 and g.stats.splits == 0


def _cli_exit(*argv):
    from repro.__main__ import main

    try:
        main(list(argv))
    except SystemExit as exc:
        return exc.code
    return 0


#: Every option the insertion tree carried, and how it fails now:
#: ``(callable, exception type or CLI exit status)``.
RETIRED_OPTIONS = {
    "SpatialTable(split_method=)": (
        lambda: SpatialTable("t", 2, split_method="rstar"), TypeError,
    ),
    "RTree(split_method=)": (lambda: RTree(split_method="linear"), TypeError),
    "RTree(min_entries=)": (lambda: RTree(max_entries=8, min_entries=2), TypeError),
    "Database.create_table(split_method=)": (
        lambda: Database().create_table("t", 2, split_method="rstar"), TypeError,
    ),
    "make_map().tables(pack=False)": (
        lambda: make_map(seed=0).tables(pack=False), TypeError,
    ),
    "smugglers_query(split_method=)": (
        lambda: smugglers_query(seed=0, split_method="rstar"), TypeError,
    ),
    # The method is gone outright (pack() is the rebuild).
    "table.reindex()": (lambda: SpatialTable("t", 2).reindex(), AttributeError),
    "bulk_insert(pack=False)": (
        lambda: SpatialTable("t", 2).bulk_insert([], pack=False), ValueError,
    ),
    "repro explain --no-pack": (lambda: _cli_exit("explain", "--no-pack"), 2),
    "repro explain --split rstar": (
        lambda: _cli_exit("explain", "--split", "rstar"), 2,
    ),
}


@pytest.mark.parametrize("name", RETIRED_OPTIONS)
def test_retired_options_fail_loudly(name, capsys):
    """No retired write-mode or split option is silently accepted."""
    call, outcome = RETIRED_OPTIONS[name]
    if isinstance(outcome, int):
        assert call() == outcome
        assert "unrecognized arguments" in capsys.readouterr().err
    else:
        with pytest.raises(outcome):
            call()
