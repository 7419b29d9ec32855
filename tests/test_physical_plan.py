"""Tests for the physical operator engine and EXPLAIN."""

import pytest

from repro.algebra.regions import Region
from repro.boxes.box import Box
from repro.boxes.bconstraints import BoxQuery
from repro.constraints.system import ConstraintSystem, overlaps, subset
from repro.datagen.workloads import smugglers_query
from repro.engine.compiler import compile_query
from repro.engine.executor import MODES, answers_as_oid_tuples, execute
from repro.engine.physical import (
    CrossProduct,
    ExactFilter,
    IndexProbe,
    TableScan,
    build_physical_plan,
)
from repro.engine.query import SpatialQuery
from repro.errors import UnknownModeError
from repro.spatial.table import SpatialTable


@pytest.fixture()
def plan():
    q, _world = smugglers_query(
        seed=5, n_towns=10, n_roads=10, states_grid=(2, 2)
    )
    return compile_query(q)


class TestPlanShapes:
    def test_boxplan_uses_index_probes(self, plan):
        pplan = build_physical_plan(plan, "boxplan")
        kinds = [op.kind for op in pplan.operators()]
        assert kinds.count("IndexProbe") == 3
        assert kinds.count("ExactFilter") == 3
        assert "CrossProduct" not in kinds

    def test_naive_is_cross_product_plus_final_filter(self, plan):
        pplan = build_physical_plan(plan, "naive")
        kinds = [op.kind for op in pplan.operators()]
        assert kinds.count("CrossProduct") == 3
        assert kinds.count("ExactFilter") == 1
        assert pplan.final_filter is not None

    def test_exact_scans_without_boxes(self, plan):
        pplan = build_physical_plan(plan, "exact")
        ops = pplan.operators()
        assert sum(isinstance(op, TableScan) for op in ops) == 3
        assert not any(isinstance(op, IndexProbe) for op in ops)
        assert not any(isinstance(op, CrossProduct) for op in ops)

    def test_boxonly_defers_the_exact_check(self, plan):
        pplan = build_physical_plan(plan, "boxonly")
        filters = [
            op for op in pplan.operators() if isinstance(op, ExactFilter)
        ]
        assert len(filters) == 1
        assert filters[0].system is not None

    def test_scan_backend_lowers_to_vectorized_probe(self):
        """Scan-backend tables fuse scan and box filter; exact mode,
        which runs no box kernel, is the oracle."""
        q, _m = smugglers_query(seed=5, n_towns=8, n_roads=8, index="scan")
        plan = compile_query(q)
        expected, exact_stats = execute(compile_query(q), "exact")
        assert exact_stats.vectorized_batches == 0
        pplan = build_physical_plan(plan, "boxplan")
        kinds = [op.kind for op in pplan.operators()]
        assert kinds.count("VectorizedScanProbe") == 3
        assert "BoxFilter" not in kinds and "TableScan" not in kinds
        answers, stats = pplan.run()
        assert stats.vectorized_batches > 0
        assert stats.vectorized_candidates > 0
        assert answers_as_oid_tuples(answers, ["T", "R", "B"]) == (
            answers_as_oid_tuples(expected, ["T", "R", "B"])
        )

    def test_scan_backend_with_pending_delta_lowers_to_vectorized_probe(self):
        """A pending delta hides the column store, but the fused probe
        reaches ``range_query_batch``, which overlays the delta: no
        scan + box filter fallback, and exact-mode answers."""
        q, _m = smugglers_query(seed=5, n_towns=8, n_roads=8, index="scan")
        towns = q.tables["T"]
        staged = next(iter(towns))
        towns.stage_delete(staged.oid)
        towns.stage_insert("staged-town", staged.region)
        assert towns.delta_pending and towns.column_store() is None
        plan = compile_query(q)
        expected, _ = execute(plan, "exact")
        assert expected
        for mode in ("boxplan", "boxonly"):
            pplan = build_physical_plan(plan, mode)
            kinds = [op.kind for op in pplan.operators()]
            assert kinds.count("VectorizedScanProbe") == 3, mode
            assert "BoxFilter" not in kinds and "TableScan" not in kinds, mode
            answers, stats = pplan.run()
            assert stats.delta_probes > 0, mode
            assert answers_as_oid_tuples(answers, ["T", "R", "B"]) == (
                answers_as_oid_tuples(expected, ["T", "R", "B"])
            ), mode

    def test_unknown_mode(self, plan):
        with pytest.raises(UnknownModeError):
            build_physical_plan(plan, "vectorized")


class TestExplain:
    def test_estimates_before_run(self, plan):
        pplan = build_physical_plan(plan, "boxplan")
        text = pplan.explain()
        assert "PhysicalPlan[boxplan]" in text
        assert "order: T, R, B" in text
        assert "IndexProbe" in text
        assert "est_rows≈" in text
        assert "actual:" not in text

    def test_actuals_after_run(self, plan):
        pplan = build_physical_plan(plan, "boxplan")
        answers, _stats = pplan.run()
        text = pplan.explain()
        assert "actual:" in text
        assert f"rows={len(answers)}" in text
        assert "probes=" in text and "node_reads=" in text

    def test_queryplan_explain_analyze(self, plan):
        text = plan.explain(mode="naive", analyze=True)
        assert "CrossProduct" in text
        assert "ExactFilter(system)" in text
        assert "actual:" in text

    def test_estimates_are_roughly_calibrated(self, plan):
        """Estimated output of each probe within 10x of the actual."""
        pplan = build_physical_plan(plan, "boxplan")
        pplan.run()
        for op in pplan.operators():
            if isinstance(op, IndexProbe) and op.est_rows:
                actual = max(1, op.stats.rows_out)
                assert 0.1 <= op.est_rows / actual <= 10.0


class TestStatsMapping:
    @pytest.mark.parametrize("mode", MODES)
    def test_physical_stats_match_execute(self, plan, mode):
        pplan = build_physical_plan(plan, mode)
        _answers, stats = pplan.run()
        _expected_answers, expected = execute(plan, mode)
        assert stats.as_dict() == expected.as_dict()

    def test_streaming_stats_are_partial(self, plan):
        pplan = build_physical_plan(plan, "boxplan")
        full_probes = pplan.run()[1].index_probes
        consumed = 0
        for _ in pplan.execute_iter(limit=1):
            consumed += 1
        assert consumed == 1
        assert 0 < pplan.stats().index_probes <= full_probes


class TestBatchProbes:
    def _table(self):
        universe = Box((0.0, 0.0), (10.0, 10.0))
        t = SpatialTable("t", 2, universe=universe)
        t.bulk_insert(
            [(i, Region.from_box(Box((i, i), (i + 1.5, i + 1.5)))) for i in range(6)]
        )
        return t

    def test_range_query_batch_bills_like_single_probes(self):
        t = self._table()
        q1 = BoxQuery(overlap=(Box((0, 0), (3, 3)),))
        q2 = BoxQuery(overlap=(Box((4, 4), (9, 9)),))
        batch = [q1, q2, q1, q1]
        t.reset_stats()
        expected = [t.range_query(q) for q in batch]
        single = (t.probes, t.candidates_returned, t.index_read_count())
        t.reset_stats()
        # Every probe reads the index, duplicates too: four, billed as four.
        assert t.range_query_batch(batch) == expected
        assert (t.probes, t.candidates_returned, t.index_read_count()) == single
        assert t.probes == 4 and expected[0] and expected[1]

    def test_rtree_search_batch(self):
        t = self._table()
        q1 = BoxQuery(overlap=(Box((0, 0), (3, 3)),))
        q2 = BoxQuery(inside=Box((3, 3), (9, 9)))
        stats = t._rtree.stats
        stats.reset()
        expected = [list(t._rtree.search(q)) for q in (q1, q2, q1)]
        reads = (stats.node_reads, stats.entry_tests)
        stats.reset()
        # Same rows in the same order, same reads: one walk, three queries.
        assert t._rtree.search_batch([q1, q2, q1]) == expected
        assert (stats.node_reads, stats.entry_tests) == reads
        assert expected[0] and expected[1]


class TestMultiTableScanBackendAgreement:
    """BoxFilter lowering agrees with IndexProbe on a fresh query."""

    def test_two_table_overlap(self):
        universe = Box((0.0, 0.0), (20.0, 20.0))
        import random

        def build(index):
            a = SpatialTable("a", 2, index=index, universe=universe)
            b = SpatialTable("b", 2, index=index, universe=universe)
            rng_local = random.Random(7)
            for i in range(15):
                lo = (rng_local.uniform(0, 16), rng_local.uniform(0, 16))
                box = Box(lo, (lo[0] + 3, lo[1] + 3))
                a.insert(i, Region.from_box(box))
                lo = (rng_local.uniform(0, 16), rng_local.uniform(0, 16))
                box = Box(lo, (lo[0] + 3, lo[1] + 3))
                b.insert(i, Region.from_box(box))
            return SpatialQuery(
                system=ConstraintSystem.build(
                    overlaps("x", "y"), subset("x", "W")
                ),
                tables={"x": a, "y": b},
                bindings={
                    "W": Region.from_box(Box((0.0, 0.0), (14.0, 14.0)))
                },
                order=["x", "y"],
            )

        got = {}
        for index in ("rtree", "scan"):
            q = build(index)
            answers, _ = execute(compile_query(q), "boxplan")
            got[index] = answers_as_oid_tuples(answers, ["x", "y"])
        assert got["rtree"] == got["scan"]
        assert got["rtree"]


@pytest.mark.parametrize("mode", ["boxplan", "exact"])
def test_a_step_filter_reading_an_unbound_variable_raises(plan, mode):
    """The step ``ExactFilter`` names a variable its bindings lack with
    :class:`UnboundVariableError` at the first candidate that needs it;
    any other ``KeyError`` is not caught."""
    from dataclasses import replace

    from repro.boolean.syntax import FALSE, Var
    from repro.constraints.solved import SolvedConstraint
    from repro.errors import UnboundVariableError

    last = plan.steps[-1]
    ghost = SolvedConstraint(last.variable, FALSE, Var("ghost"))
    broken = replace(plan, steps=plan.steps[:-1] + (replace(last, exact=ghost),))
    with pytest.raises(UnboundVariableError, match="ghost"):
        list(build_physical_plan(broken, mode, estimate=False).execute_iter())


#: ``x ∧ y ≠ 0``, ``z ∧ y ∧ ¬A ≠ 0`` in the order x, y, z over 12 random
#: boxes a table: ``C_z`` reads ``y`` but not ``x``, and one ``y`` row
#: comes back under several ``x`` rows, not one after the other.  The
#: step filter binds ``C_z`` once per distinct ``y`` row, so ``y ∧ ¬A``
#: is billed once per row; bound once per input binding it bills 745
#: and 2 284.
SUBSET_READS_REGION_OPS = {"boxplan": 703, "exact": 2236}


@pytest.mark.parametrize("mode", sorted(SUBSET_READS_REGION_OPS))
def test_a_step_filter_binds_once_per_distinct_read_rows(mode):
    import random

    from repro.constraints.parser import parse_system
    from repro.datagen.workloads import _random_rows
    from repro.engine.query import SpatialQuery

    rng = random.Random(3)
    universe = Box((0.0, 0.0), (100.0, 100.0))
    tables = {}
    for name in ("x", "y", "z"):
        tables[name] = SpatialTable(name, 2, universe=universe)
        tables[name].bulk_insert(_random_rows(rng, 12, universe, 10.0, 40.0))
    q = SpatialQuery(
        system=parse_system("x & y != 0\nz & y & ~A != 0"),
        tables=tables,
        bindings={"A": Region.from_box(Box((0.0, 0.0), (50.0, 100.0)))},
        order=["x", "y", "z"],
    )
    plan = compile_query(q)
    assert plan.steps[-1].exact.earlier_variables() == {"A", "y"}
    answers, stats = execute(plan, mode)
    assert (len(answers), stats.partial_tuples) == (67, 102)
    assert stats.region_ops == SUBSET_READS_REGION_OPS[mode]
