"""Unit tests for the nearest-neighbor & aggregation subsystem.

Deterministic edge cases the differential harness (``test_differential.
py``) does not pin down: the distance metrics' geometry, the best-first
traversal's bounds and pruning counters, logical-node validation, the
planner's strategy choices, order repair, and the CLI flags.
"""

import random
import subprocess
import sys

import pytest
from hypothesis import given, settings

import reference_rtree as ref
from repro.algebra.regions import Region
from repro.boxes.bconstraints import BoxQuery
from repro.boxes.box import EMPTY_BOX, Box
from repro.engine.compiler import compile_query
from repro.engine.physical import build_physical_plan
from repro.engine.planner import choose_aggregate_strategy
from repro.engine.query import AggregateSpec, KNNStep, SpatialQuery
from repro.errors import CompilationError, DimensionMismatchError
from repro.constraints.system import ConstraintSystem, nonempty, overlaps
from repro.database import Database
from repro.spatial.rtree import RTree
from repro.spatial.table import SpatialTable
from tests.conftest import UNIVERSE, random_table
from tests.strategies import nonempty_boxes


class TestDistanceMetrics:
    def test_mindist_point_geometry(self):
        b = Box((2.0, 2.0), (4.0, 4.0))
        assert b.mindist_point((3.0, 3.0)) == 0.0  # inside
        assert b.mindist_point((3.0, 6.0)) == 2.0  # axis gap
        assert b.mindist_point((0.0, 0.0)) == pytest.approx(8 ** 0.5)

    def test_box_mindist(self):
        b = Box((2.0, 2.0), (4.0, 4.0))
        assert b.mindist(Box((6.0, 2.0), (8.0, 4.0))) == 2.0
        assert b.mindist(Box((3.0, 3.0), (9.0, 9.0))) == 0.0  # overlap
        assert b.mindist(Box((6.0, 6.0), (7.0, 7.0))) == pytest.approx(
            8 ** 0.5
        )
        # A shrinking box converges to the point metric; the zero-eps
        # point box is empty (half-open) and hence infinitely far.
        assert b.mindist(
            Box.point_box((0.0, 0.0), eps=1e-9)
        ) == pytest.approx(b.mindist_point((0.0, 0.0)), abs=1e-6)
        assert b.mindist(Box.point_box((0.0, 0.0))) == float("inf")

    def test_empty_box_is_infinitely_far(self):
        assert EMPTY_BOX.mindist_point((0.0, 0.0)) == float("inf")
        assert EMPTY_BOX.maxdist_point((0.0, 0.0)) == float("inf")
        assert EMPTY_BOX.minmaxdist_point((0.0, 0.0)) == float("inf")
        assert Box((0.0,), (1.0,)).mindist(EMPTY_BOX) == float("inf")

    def test_dimension_mismatch_raises(self):
        b = Box((0.0, 0.0), (1.0, 1.0))
        with pytest.raises(DimensionMismatchError):
            b.mindist_point((1.0,))
        with pytest.raises(DimensionMismatchError):
            b.minmaxdist_point((1.0, 2.0, 3.0))
        with pytest.raises(DimensionMismatchError):
            b.mindist(Box((0.0,), (1.0,)))

    @given(nonempty_boxes(), nonempty_boxes())
    @settings(max_examples=120, deadline=None)
    def test_minmaxdist_sandwich(self, box, anchor):
        """MINDIST <= MINMAXDIST <= MAXDIST for every box and point."""
        p = anchor.center()
        lo = box.mindist_point(p)
        mid = box.minmaxdist_point(p)
        hi = box.maxdist_point(p)
        assert lo <= mid + 1e-9
        assert mid <= hi + 1e-9

    @given(nonempty_boxes(), nonempty_boxes())
    @settings(max_examples=120, deadline=None)
    def test_mindist_bounds_any_contained_point(self, box, anchor):
        """mindist is a sound optimistic bound: the distance to the
        box's nearest corner/center never beats it."""
        p = anchor.center()
        for q in (box.center(), box.lo, tuple(v - 1e-9 for v in box.hi)):
            d = sum((a - b) ** 2 for a, b in zip(p, q)) ** 0.5
            if box.contains_point(q):
                assert box.mindist_point(p) <= d + 1e-9


class TestRTreeNearest:
    def _tree(self, n=200, seed=1):
        rng = random.Random(seed)
        entries = []
        for i in range(n):
            lo = (rng.uniform(0, 100), rng.uniform(0, 100))
            b = Box(lo, (lo[0] + rng.uniform(0.5, 5), lo[1] + rng.uniform(0.5, 5)))
            entries.append((b, i))
        return RTree.bulk_load(entries, max_entries=6), entries

    def test_empty_tree_and_k_edge_cases(self):
        tree = RTree()
        assert tree.nearest((0.0, 0.0), 3) == []
        assert tree.nearest((0.0, 0.0), 0) == []
        tree = RTree.bulk_load([(Box((0.0, 0.0), (1.0, 1.0)), "a")])
        assert [v for _d, v in tree.nearest((5.0, 5.0), 10)] == ["a"]

    def test_empty_box_entries_never_surface(self):
        tree = RTree.bulk_load(
            [(EMPTY_BOX, "ghost"), (Box((1.0, 1.0), (2.0, 2.0)), "real")]
        )
        assert [v for _d, v in tree.nearest((0.0, 0.0), 5)] == ["real"]
        assert [v for _d, v in tree.distance_browse((0.0, 0.0))] == [
            "real"
        ]

    def test_browse_is_sorted_and_complete(self):
        tree, entries = self._tree()
        out = list(tree.distance_browse((40.0, 60.0)))
        assert len(out) == len(entries)
        dists = [d for d, _v in out]
        assert dists == sorted(dists)

    def test_nearest_reads_fewer_nodes_and_counts_pruning(self):
        tree, _entries = self._tree()
        tree.stats.reset()
        tree.nearest((50.0, 50.0), 5)
        assert tree.stats.node_reads < tree.node_count() // 2
        assert tree.stats.pruned_subtrees > 0

    def test_count_matches_search_on_all_forms(self):
        tree, _entries = self._tree(n=120, seed=4)
        rng = random.Random(7)
        for _ in range(40):
            lo = (rng.uniform(0, 70), rng.uniform(0, 70))
            big = Box(lo, (lo[0] + rng.uniform(5, 30), lo[1] + rng.uniform(5, 30)))
            small = Box(lo, (lo[0] + 2, lo[1] + 2))
            for query in (
                BoxQuery(inside=big),
                BoxQuery(overlap=(small,)),
                BoxQuery(covers=small),
                BoxQuery(inside=big, overlap=(small,)),
            ):
                assert tree.count(query) == len(list(tree.search(query)))
        assert tree.count(BoxQuery(overlap=(EMPTY_BOX,))) == 0

    def test_count_pushdown_reads_fewer_nodes(self):
        tree, _entries = self._tree(n=300, seed=8)
        query = BoxQuery(inside=Box((-10.0, -10.0), (120.0, 120.0)))
        tree.count(query)  # warm the subtree-count cache
        tree.stats.reset()
        assert tree.count(query) == len(tree)
        assert tree.stats.node_reads < tree.node_count()
        assert tree.stats.pruned_subtrees > 0


class TestTableNearest:
    def test_access_validation(self):
        """The table's index picks the kNN path: ``access=`` is no
        parameter of either backend's ``nearest``, nor of a session's."""
        for index in SpatialTable.VALID_INDEXES:
            t = SpatialTable("t", 2, index=index, universe=UNIVERSE)
            for access in ("auto", "bestfirst", "scan"):
                with pytest.raises(TypeError, match="access"):
                    t.nearest((0.0, 0.0), 1, access=access)
                with pytest.raises(TypeError, match="access"):
                    Database(tables={"t": t}).session().nearest(
                        "t", (0.0, 0.0), 1, access=access
                    )

    def test_non_rtree_backends_scan(self):
        rng = random.Random(2)
        t = random_table("t", rng, 12, index="scan")
        got = t.nearest((10.0, 10.0), 4)
        want = t.nearest_bruteforce((10.0, 10.0), 4)
        assert [o.oid for _d, o in got] == [o.oid for _d, o in want]

    def test_counts_probes(self):
        rng = random.Random(3)
        t = random_table("t", rng, 10)
        t.reset_stats()
        t.nearest((5.0, 5.0), 3)
        t.nearest_bruteforce((5.0, 5.0), 3)
        assert t.probes == 2
        assert t.candidates_returned == 6


class TestReadGate:
    """The kNN / COUNT-pushdown read gate as exact counts (it lived in
    ``benchmarks/bench_knn.py``): on an STR-packed table of 2 000 random
    boxes, 20 probes read this many nodes — machine-independent, so a
    change to the browse, the pushdown or the packing shows as a diff
    here, and best-first must stay under half a full traversal."""

    SIZE, PROBES, SIDE = 2000, 20, 100.0
    #: Best-first reads may be at most this share of a full traversal.
    READ_GATE = 0.5

    @pytest.fixture(scope="class")
    def table(self):
        rng = random.Random(self.SIZE)
        rows = []
        for i in range(self.SIZE):
            lo = (rng.uniform(0, self.SIDE - 6), rng.uniform(0, self.SIDE - 6))
            hi = (lo[0] + rng.uniform(0.5, 6), lo[1] + rng.uniform(0.5, 6))
            rows.append((i, Region.from_box(Box(lo, hi))))
        table = SpatialTable("knn", 2, universe=Box((0.0, 0.0), (self.SIDE, self.SIDE)))
        table.bulk_insert(rows)
        assert table._rtree.node_count() == 299
        return table

    @pytest.mark.parametrize("k,reads,pruned", [(1, 130, 499), (10, 186, 562)])
    def test_bestfirst_reads(self, table, k, reads, pruned):
        rng = random.Random(self.SIZE + 1)
        points = [
            (rng.uniform(0, self.SIDE), rng.uniform(0, self.SIDE))
            for _ in range(self.PROBES)
        ]
        table.reset_stats()
        best = [table.nearest(p, k) for p in points]
        stats = table._rtree.stats
        assert (stats.node_reads, stats.pruned_subtrees) == (reads, pruned)
        assert reads <= self.READ_GATE * 299 * self.PROBES
        assert best == [table.nearest_bruteforce(p, k) for p in points]

    def test_count_pushdown_reads(self, table):
        rng = random.Random(self.SIZE + 2)
        reads = pruned = 0
        for _ in range(self.PROBES):
            lo = (rng.uniform(0, 60), rng.uniform(0, 60))
            query = BoxQuery(
                inside=Box(lo, (lo[0] + rng.uniform(10, 40), lo[1] + rng.uniform(10, 40)))
            )
            table.reset_stats()
            assert table.count_range(query) == sum(
                1 for obj in table if query.matches(obj.box)
            )
            reads += table._rtree.stats.node_reads
            pruned += table._rtree.stats.pruned_subtrees
        assert (reads, pruned) == (672, 152)

    def test_first_count_bills_like_every_other(self, table, tmp_path):
        """The subtree counts live on the tree's array form, filled by
        one unbilled sweep: the first COUNT on a freshly packed tree, on
        a repacked one and on a snapshot-loaded one bills what the
        frozen ``_Node`` walk bills, and a tree keeps no cache beside
        its form — a repack's new tree starts from nothing, and a staged
        write leaves the tree's counts as they are."""
        query = BoxQuery(inside=Box((20.0, 20.0), (70.0, 70.0)))

        def billed(tree, call):
            tree.stats.reset()
            return call(), tree.stats.node_reads, tree.stats.pruned_subtrees

        fresh = SpatialTable("knn", 2, universe=table.universe)
        fresh.bulk_insert([(obj.oid, obj.region) for obj in table])
        path = str(tmp_path / "db.json")
        Database(tables={"knn": fresh}).save(path)
        loaded = Database.open(path).table("knn")
        first = {}
        for name, tree in (("fresh", fresh._rtree), ("loaded", loaded._rtree)):
            assert tree._flat._below is None  # nothing counted yet
            first[name] = billed(tree, lambda: tree.count(query))
            assert first[name] == billed(tree, lambda: ref.count(tree, query))
            assert first[name] == billed(tree, lambda: tree.count(query))
        assert first["fresh"] == first["loaded"] == (486, 70, 35)  # equal at the parent commit
        old = fresh._rtree
        fresh.stage_delete(next(iter(fresh)).oid)
        assert fresh.repack() and fresh._rtree is not old
        assert set(vars(fresh._rtree)) == set(vars(old)) == {
            "max_entries", "_size", "stats", "_flat",
        }
        assert fresh._rtree._flat._below is None and old._flat._below is not None
        total = fresh._rtree.count(BoxQuery(inside=table.universe))
        assert total == len(fresh) == self.SIZE - 1
        tree = fresh._rtree
        fresh.insert("late", Region.from_box(Box((1.0, 1.0), (2.0, 2.0))))
        assert fresh._rtree is tree and tree.count(BoxQuery(inside=table.universe)) == total
        assert fresh.count_range(BoxQuery(inside=table.universe)) == total + 1


class TestLogicalValidation:
    def _query(self, **kwargs):
        rng = random.Random(0)
        tables = {"u": random_table("u", rng, 4)}
        return SpatialQuery(
            system=ConstraintSystem.build(nonempty("u")),
            tables=tables,
            **kwargs,
        )

    def test_knn_step_validation(self):
        with pytest.raises(CompilationError, match="not a table"):
            self._query(knn=KNNStep("x", k=1, point=(0.0, 0.0)))
        with pytest.raises(CompilationError, match="k >= 1"):
            self._query(knn=KNNStep("u", k=0, point=(0.0, 0.0)))
        with pytest.raises(CompilationError, match="exactly one"):
            self._query(knn=KNNStep("u", k=1))
        with pytest.raises(CompilationError, match="exactly one"):
            self._query(knn=KNNStep("u", k=1, point=(0.0, 0.0), ref="P"))
        with pytest.raises(CompilationError, match="dims"):
            self._query(knn=KNNStep("u", k=1, point=(0.0, 0.0, 0.0)))
        with pytest.raises(CompilationError, match="own variable"):
            self._query(knn=KNNStep("u", k=1, ref="u"))
        with pytest.raises(CompilationError, match="neither"):
            self._query(knn=KNNStep("u", k=1, ref="zzz"))

    def test_aggregate_spec_validation(self):
        with pytest.raises(CompilationError, match="at least one"):
            AggregateSpec(aggregates=())
        with pytest.raises(CompilationError, match="unknown aggregate"):
            AggregateSpec(aggregates=(("sum", "u"),))
        with pytest.raises(CompilationError, match="no target"):
            AggregateSpec(aggregates=(("count", "u"),))
        with pytest.raises(CompilationError, match="needs a target"):
            AggregateSpec(aggregates=(("min", None),))
        with pytest.raises(CompilationError, match="not a table"):
            self._query(aggregate=AggregateSpec(group_by=("nope",)))
        with pytest.raises(CompilationError, match="not a table"):
            self._query(
                aggregate=AggregateSpec(aggregates=(("max", "nope"),))
            )
        assert AggregateSpec().labels() == ("count",)
        assert AggregateSpec(
            aggregates=(("count", None), ("min", "u"))
        ).labels() == ("count", "min(u)")
        # Duplicate ops would share one accumulator label and silently
        # double-count; the spec rejects them up front.
        with pytest.raises(CompilationError, match="duplicate"):
            AggregateSpec(aggregates=(("count", None), ("count", None)))
        with pytest.raises(CompilationError, match="duplicate"):
            AggregateSpec(aggregates=(("min", "u"), ("min", "u")))

    def test_order_repair_and_explicit_violation(self):
        rng = random.Random(1)
        tables = {
            "u": random_table("u", rng, 4),
            "v": random_table("v", rng, 4),
        }
        system = ConstraintSystem.build(overlaps("u", "v"))
        query = SpatialQuery(
            system=system, tables=tables, knn=KNNStep("u", k=2, ref="v")
        )
        # Planner-chosen orders are silently repaired...
        plan = compile_query(query)
        assert plan.order.index("v") < plan.order.index("u")
        # ...explicit ones that violate the anchoring raise.
        with pytest.raises(CompilationError, match="anchored"):
            compile_query(query, order=("u", "v"))


class TestStrategyChoice:
    def test_aggregate_strategy_choice_and_errors(self):
        rng = random.Random(6)
        tables = {"u": random_table("u", rng, 6)}
        system = ConstraintSystem.build(nonempty("u"))
        exact = compile_query(
            SpatialQuery(
                system=system, tables=tables, aggregate=AggregateSpec()
            )
        )
        assert choose_aggregate_strategy(exact, "boxplan") == "stream"
        boxed = compile_query(
            SpatialQuery(
                system=system,
                tables=tables,
                aggregate=AggregateSpec(exact=False),
            )
        )
        assert choose_aggregate_strategy(boxed, "boxplan") == "pushdown"
        with pytest.raises(CompilationError, match="no box layer"):
            build_physical_plan(boxed, "exact")
        grouped = compile_query(
            SpatialQuery(
                system=system,
                tables=tables,
                aggregate=AggregateSpec(exact=False, group_by=("u",)),
            )
        )
        with pytest.raises(CompilationError, match="group-by"):
            build_physical_plan(grouped, "boxplan")

    def test_knn_streams_nearest_first(self):
        """Distance browsing at the query level: a kNN plan extends in
        nondecreasing anchor distance, so limit=j prefixes are the j
        nearest answers."""
        rng = random.Random(9)
        table = random_table("u", rng, 25)
        query = SpatialQuery(
            system=ConstraintSystem.build(nonempty("u")),
            tables={"u": table},
            knn=KNNStep("u", k=10, point=(16.0, 16.0)),
        )
        plan = compile_query(query)
        pplan = build_physical_plan(plan, "boxplan", estimate=False)
        answers = list(pplan.execute_iter())
        dists = [
            a["u"].box.mindist_point((16.0, 16.0)) for a in answers
        ]
        assert dists == sorted(dists)
        limited = [
            a["u"].oid
            for a in build_physical_plan(
                plan, "boxplan", estimate=False
            ).execute_iter(limit=3)
        ]
        assert limited == [a["u"].oid for a in answers[:3]]

    def test_ungrouped_aggregate_of_nothing_is_one_zero_row(self):
        """SQL empty-input semantics — and strategy agreement: the
        exact stream fold and the COUNT pushdown both emit one row
        (count 0) for the same empty logical query; a grouped
        aggregate emits no rows."""
        from repro.constraints.system import subset

        rng = random.Random(12)
        table = random_table("u", rng, 6)
        binding = {"P": Region.from_box(Box((90.0, 90.0), (91.0, 91.0)))}
        system = ConstraintSystem.build(subset("u", "P"))  # no matches

        def rows_for(spec):
            query = SpatialQuery(
                system=system,
                tables={"u": table},
                bindings=binding,
                aggregate=spec,
            )
            pplan = build_physical_plan(
                compile_query(query), "boxplan", estimate=False
            )
            return pplan.run()[0]

        exact = rows_for(
            AggregateSpec(aggregates=(("count", None), ("min", "u")))
        )
        assert len(exact) == 1 and exact[0].group == ()
        assert exact[0].values == {"count": 0, "min(u)": None}
        pushdown = rows_for(AggregateSpec(exact=False))
        assert [r.values["count"] for r in pushdown] == [
            exact[0].values["count"]
        ]
        grouped = rows_for(AggregateSpec(group_by=("u",)))
        assert grouped == []

    def test_knn_ref_equal_to_variable_fails_cleanly(self):
        """Regression: the CLI's order repair used to crash with a raw
        ValueError when the kNN variable defaulted to its own anchor;
        validation must reject it (and repair_knn_order must not
        touch such an order)."""
        from repro.engine.compiler import repair_knn_order

        proc = _cli(
            "run", "--workload", "smugglers", "--size", "6",
            "--knn", "3", "--knn-var", "T", "--knn-ref", "T",
        )
        assert proc.returncode != 0
        assert "cannot anchor on its own variable" in proc.stderr
        assert "ValueError" not in proc.stderr
        bad = KNNStep("u", k=1, ref="u")
        assert repair_knn_order(("u", "v"), bad, {"u": None, "v": None}) == (
            "u",
            "v",
        )

    def test_distance_join_memoizes_repeated_anchors(self):
        """With an unrelated variable between the anchor and the kNN
        step, every anchor box repeats across the fan-out; the join
        must probe once per *distinct* anchor, not per tuple."""
        from repro.engine.physical import KNNProbe

        rng = random.Random(13)
        tables = {
            "a": random_table("a", rng, 3),
            "m": random_table("m", rng, 6),
            "z": random_table("z", rng, 30),
        }
        system = ConstraintSystem.build(
            nonempty("a"), nonempty("m"), nonempty("z")
        )
        query = SpatialQuery(
            system=system, tables=tables, knn=KNNStep("z", k=2, ref="a")
        )
        plan = compile_query(query, order=("a", "m", "z"))
        pplan = build_physical_plan(plan, "boxplan", estimate=False)
        list(pplan.execute_iter())
        join = next(
            op for op in pplan.operators() if isinstance(op, KNNProbe)
        )
        assert join.kind == "DistanceJoin"
        assert join.stats.rows_in == len(tables["a"]) * len(tables["m"])
        assert join.stats.probes == len(tables["a"])  # distinct anchors

    def test_explain_mentions_knn_and_aggregate(self):
        rng = random.Random(10)
        table = random_table("u", rng, 8)
        query = SpatialQuery(
            system=ConstraintSystem.build(nonempty("u")),
            tables={"u": table},
            knn=KNNStep("u", k=2, point=(1.0, 1.0)),
            aggregate=AggregateSpec(),
        )
        plan = compile_query(query)
        text = plan.physical("boxplan").explain()
        assert "KNNProbe" in text and "Aggregate" in text
        assert "knn(u, k=2" in text and "agg(count)" in text


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestCliFlags:
    def test_run_knn(self):
        proc = _cli(
            "run", "--workload", "overlay", "--size", "10",
            "--knn", "3", "--knn-var", "y", "--knn-ref", "x",
        )
        assert proc.returncode == 0, proc.stderr

    def test_run_aggregate(self):
        proc = _cli(
            "run", "--workload", "overlay", "--size", "10",
            "--agg", "count,min:y", "--group-by", "x",
        )
        assert proc.returncode == 0, proc.stderr
        assert "count" in proc.stdout and "min(y)" in proc.stdout

    def test_bench_box_count_json(self):
        """The pushed-down box COUNT through ``explain --analyze --json``."""
        import json

        proc = _cli(
            "explain", "--workload", "sandwich", "--size", "12", "--json",
            "--analyze", "--agg", "count", "--agg-box",
            "--order-strategy", "greedy",
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert "agg(count, boxes only)" in result["plan"]
        assert result["count"] == 1  # one aggregate row

    def test_explain_knn(self):
        proc = _cli(
            "explain", "--workload", "overlay", "--size", "10",
            "--knn", "2", "--analyze",
        )
        assert proc.returncode == 0, proc.stderr
        assert "KNNProbe" in proc.stdout
