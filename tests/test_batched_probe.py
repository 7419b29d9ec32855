"""Differential oracle for set-at-a-time index probes.

``SpatialTable.range_query_batch`` and ``range_query_packed`` promise
the rows, the row order and every counter of ``range_query`` called once
per query; the grouped
``IndexProbe`` promises the answers, the answer order and the
``ExecutionStats`` of probing binding by binding
(``tests/reference_probe.py``), reading at most twice as far ahead
under ``limit=``.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algebra.regions import Region
from repro.boxes.box import Box
from repro.boxes.bconstraints import BoxQuery, pack_query
from repro.boxes.box import EMPTY_BOX
from repro.datagen.workloads import overlay_query
from repro.engine.compiler import compile_query
from repro.engine.physical import build_physical_plan
from repro.engine.query import SpatialQuery
from repro.engine.physical import IndexProbe
from repro.errors import UnsatisfiableError
from repro.spatial.rtree import RTree
from repro.spatial.table import SpatialTable
from repro.spatial import rtree as rtree_module
from tests.conftest import (
    BACKEND_IDS,
    UNIVERSE,
    constraint_systems,
    edge_box_queries,
    edge_boxes,
    make_workload,
    scan_twin,
    shifted_seed,
)
from tests.reference_probe import PerBindingIndexProbe, probe_per_binding
from tests.test_planner_reference import (
    FIGURE1_VARIANTS,
    _figure1_query,
    figure1_db,  # noqa: F401  (module-scoped fixture)
)

BATCH_SIZES = (1, 2, 7, 64, 300)
#: Node capacities: the capacity is what shapes a packed tree.  The
#: test ids name them by the retired split methods they stand in for,
#: so each case keeps its id.
CAPACITIES = (4, 3, 6)
CAPACITY_IDS = ("quadratic", "linear", "rstar")
SHAPES = (
    "overlap1",
    "overlap2",
    "inside",
    "covers",
    "mixed",
    "unsatisfiable",
    "empty_box",
    "unconstrained",
)
#: A batch of distinct queries, and one that repeats each query three
#: times in a shuffled order (every repeat reads the index again).
REPEATS = ("distinct", "duplicates")


def _box(rng, side):
    x, y = rng.uniform(0, 30), rng.uniform(0, 30)
    return Box((x, y), (x + rng.uniform(0.5, side), y + rng.uniform(0.5, side))).meet(
        UNIVERSE
    )


def _table(capacity, delta, seed=0):
    """220 rows packed at the node capacity ``capacity``, optionally
    with a pending delta of inserts and tombstones."""
    rng = random.Random(shifted_seed(seed))
    table = SpatialTable(
        "t", 2, universe=UNIVERSE, node_capacity=capacity,
        delta_threshold=10**9,
    )
    table.bulk_insert([(i, Region.from_box(_box(rng, 6))) for i in range(220)])
    if delta:
        for i in range(220, 232):
            table.stage_insert(i, Region.from_box(_box(rng, 6)))
        for oid in rng.sample(range(220), 9):
            assert table.stage_delete(oid)
        assert table.delta_pending
    return table


def _query(shape, rng, i):
    if shape == "mixed":
        plain = [s for s in SHAPES if s != "mixed"]
        shape = plain[i % len(plain)]
    if shape == "overlap1":
        return BoxQuery(inside=UNIVERSE, overlap=(_box(rng, 8),))
    if shape == "overlap2":
        return BoxQuery(overlap=(_box(rng, 12), _box(rng, 12)))
    if shape == "inside":
        return BoxQuery(inside=_box(rng, 16))
    if shape == "covers":
        centre = _box(rng, 1)
        return BoxQuery(inside=UNIVERSE, covers=Box(centre.lo, tuple(c + 0.25 for c in centre.lo)))
    if shape == "unsatisfiable":
        return BoxQuery(inside=UNIVERSE, overlap=(EMPTY_BOX,))
    if shape == "empty_box":
        # Satisfiable on paper (nothing else is required), matches nothing.
        return BoxQuery(inside=EMPTY_BOX, covers=EMPTY_BOX if i % 2 else None)
    return BoxQuery()


def _counters(table):
    out = {
        "probes": table.probes,
        "candidates_returned": table.candidates_returned,
        "vectorized_batches": table.vectorized_batches,
        "vectorized_candidates": table.vectorized_candidates,
        "delta_probes": table.delta_probes,
    }
    if table._rtree is not None:
        out["node_reads"] = table._rtree.stats.node_reads
        out["entry_tests"] = table._rtree.stats.entry_tests
    return out


def _packed_probe(table):
    """``range_query_batch`` through the packed entry point ``IndexProbe``
    calls: each query packed (``None`` when unsatisfiable) beforehand."""
    def probe(queries):
        return table.range_query_packed(
            [None if q.is_unsatisfiable() else pack_query(q, table.dim) for q in queries]
        )

    return probe


@pytest.mark.parametrize("backend", BACKEND_IDS)
@pytest.mark.parametrize("delta", [False, True], ids=["clean", "delta"])
@pytest.mark.parametrize("capacity", CAPACITIES, ids=CAPACITY_IDS)
def test_range_query_batch_equals_single_calls(capacity, delta, backend):
    """A batch answers and bills like ``range_query`` called query
    after query, through ``range_query_batch`` and through the packed
    entry point, on the r-tree table and on its scan-backend twin; and
    ``range_query`` returns the live rows whose box matches."""
    indexed = _table(capacity, delta)
    for table in (indexed, scan_twin(indexed)):
        live = table.scan()
        rng = random.Random(shifted_seed(1))
        for shape in SHAPES:
            for size in BATCH_SIZES:
                for repeats in REPEATS:
                    queries = [_query(shape, rng, i) for i in range(size)]
                    if repeats == "duplicates":
                        queries = [queries[i // 3 % len(queries)] for i in range(size)]
                        rng.shuffle(queries)
                    table.reset_stats()
                    expected = [table.range_query(query) for query in queries]
                    expected_counters = _counters(table)
                    where = (table.index_kind, shape, size, repeats)
                    for query, rows in zip(queries[:7], expected):
                        assert sorted(o.oid for o in rows) == sorted(
                            o.oid for o in live
                            if not query.is_unsatisfiable() and query.matches(o.box)
                        ), where
                    for probe in (table.range_query_batch, _packed_probe(table)):
                        table.reset_stats()
                        got = probe(queries)
                        assert [[o.oid for o in rows] for rows in got] == [
                            [o.oid for o in rows] for rows in expected
                        ], where
                        assert _counters(table) == expected_counters, where


@pytest.mark.parametrize("capacity", CAPACITIES, ids=CAPACITY_IDS)
def test_batch_really_shares_one_traversal(capacity):
    """The equalities above are not vacuous: every satisfiable query of
    a batch reaches ``RTree.search_packed`` together, packed once, in one
    call, and a repeated query is read again.  (The spy counts the
    satisfiable queries of each call; the walk passes the others over.)"""
    table = _table(capacity, delta=False)
    rng = random.Random(2)
    queries = [_query("overlap1", rng, i) for i in range(40)]
    unsatisfiable = _query("unsatisfiable", rng, 0)
    calls = []
    tree = table._rtree
    real_packed = tree.search_packed

    def spy(packed):
        calls.append(sum(p is not None for p in packed))
        return real_packed(packed)

    tree.search_packed = spy
    table.range_query_batch(queries)
    table.range_query_batch(queries[:10] + queries[:10])
    table.range_query_batch(queries[:2] + [unsatisfiable])
    table.range_query(queries[39])
    reads = tree.stats.node_reads
    table.range_query_batch([unsatisfiable])  # nothing to read
    assert tree.stats.node_reads == reads
    assert calls == [40, 20, 2, 1, 0]


def _assert_batch_equals_scalar_searches(tree, queries):
    tree.stats.reset()
    expected = [list(tree.search(query)) for query in queries]
    reads = (tree.stats.node_reads, tree.stats.entry_tests)
    tree.stats.reset()
    assert tree.search_batch(queries) == expected
    assert (tree.stats.node_reads, tree.stats.entry_tests) == reads


@given(
    st.lists(st.tuples(edge_boxes(), st.booleans()), max_size=40),
    st.lists(edge_box_queries(), min_size=1, max_size=12),
    st.sampled_from(sorted(CAPACITIES)),
    st.sampled_from([1 << 16, 5]),
)
@settings(max_examples=120, deadline=None)
def test_search_batch_equals_scalar_search_on_edge_cases(entries, queries, capacity, slots):
    """Degenerate and unbounded query boxes, empty trees, a frontier
    halved again and again: same rows in the same order, same reads and
    tests as the scalar walk."""
    tree = RTree.bulk_load(
        [(box, i) for i, (box, keep) in enumerate(entries) if keep],
        max_entries=capacity,
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rtree_module, "_FRONTIER_SLOTS", slots)
        _assert_batch_equals_scalar_searches(tree, queries)


def test_wide_windows_on_a_large_table_split_the_frontier():
    """64 windows over a quarter of an 8 000-row table each: the leaf
    level alone is wider than ``_FRONTIER_SLOTS``, so the walk goes in
    pieces — and still answers and bills like 64 scalar searches."""
    rng = random.Random(shifted_seed(3))
    table = SpatialTable("wide", 2, universe=UNIVERSE)
    table.bulk_insert(
        [(i, Region.from_box(_box(rng, 2))) for i in range(8000)], pack=True
    )
    queries = [
        BoxQuery(inside=UNIVERSE, overlap=(Box((x, y), (x + 16.0, y + 16.0)),))
        for x, y in ((rng.uniform(0, 16), rng.uniform(0, 16)) for _ in range(64))
    ]
    tree = table._rtree
    _assert_batch_equals_scalar_searches(tree, queries)
    assert tree.stats.entry_tests > 2 * rtree_module._FRONTIER_SLOTS


# -- operator level -------------------------------------------------------------
def _plans(query, order=None):
    """The same physical plan twice: as built, and probing per binding."""
    logical = compile_query(query, order=order)
    grouped = build_physical_plan(logical, estimate=False)
    oracle = probe_per_binding(build_physical_plan(logical, estimate=False))
    return grouped, oracle


def _oids(answers):
    return [sorted((name, obj.oid) for name, obj in a.items()) for a in answers]


def _prefix_lengths(n):
    """Every ``k`` up to 40 (the ramp's first six groups end inside),
    then each group boundary's neighbours, then ``n`` itself: a drain
    per ``k`` is quadratic in the answer count."""
    edges = {2**i + d for i in range(5, 20) for d in (-2, -1, 0)}
    return sorted(k for k in set(range(1, 41)) | edges | {n} if 1 <= k <= n)


def _assert_grouped_probe_matches_oracle(query, order=None):
    grouped, oracle = _plans(query, order)
    expected = _oids(oracle.execute_iter())
    expected_stats = oracle.stats().to_dict()
    assert _oids(grouped.execute_iter()) == expected
    assert grouped.stats().to_dict() == expected_stats
    for k in _prefix_lengths(len(expected)):
        assert _oids(grouped.execute_iter(limit=k)) == expected[:k], k
    # The ramp's guard: at the first answer every probe has read at most
    # twice as far ahead as probing per binding needed to meet the same
    # demand.  The reference is the plan with only that probe per
    # binding: the operators downstream of it then pull exactly as many
    # rows from it.  (Against the all-per-binding plan the bound does not
    # compose: a downstream probe's read-ahead raises the demand on the
    # probes above it, and bindings that extend to no row can make that
    # demand cost them arbitrarily many more inputs.)
    list(grouped.execute_iter(limit=1))
    for i, ours in enumerate(grouped.operators()):
        if isinstance(ours, IndexProbe):
            alone, theirs = _one_probe_per_binding(query, order, i)
            assert isinstance(theirs, PerBindingIndexProbe)
            list(alone.execute_iter(limit=1))
            assert ours.stats.rows_in <= 2 * theirs.stats.rows_in + 1
    return len(expected)


def _one_probe_per_binding(query, order, i):
    """The physical plan as built, with only its ``i``-th operator
    probing per binding; returns the plan and that operator."""
    plan = build_physical_plan(compile_query(query, order=order), estimate=False)
    op = plan.operators()[i]
    if type(op) is IndexProbe:
        op.__class__ = PerBindingIndexProbe
    return plan, op


@pytest.mark.parametrize("backend", BACKEND_IDS)
@given(
    constraint_systems(),
    st.integers(0, 10_000),
    st.sampled_from([(2, 5), (2, 40)]),
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
def test_conftest_workloads_match_per_binding_probing(backend, system, seed, sizes):
    tables, bindings = make_workload(seed, system=system, sizes=sizes)
    if not tables:
        return
    query = SpatialQuery(system=system, tables=tables, bindings=bindings)
    try:
        _assert_grouped_probe_matches_oracle(query)
    except UnsatisfiableError:
        return  # decided at compile time: no plan to compare


@pytest.mark.parametrize("form,area", FIGURE1_VARIANTS)
def test_figure1_variants_match_per_binding_probing(figure1_db, form, area):  # noqa: F811
    query = _figure1_query(figure1_db, form, area)
    assert _assert_grouped_probe_matches_oracle(query, order=("T", "R", "B"))


def test_overlay_join_matches_per_binding_probing():
    """The claimed workload's shape, at a size that fills the ramp."""
    query = overlay_query(300, 300, seed=0)
    grouped, oracle = _plans(query, order=("x", "y"))
    expected = _oids(oracle.execute_iter())
    assert _oids(grouped.execute_iter()) == expected
    assert grouped.stats().to_dict() == oracle.stats().to_dict()
    # The oracle is not the code under test in disguise.
    assert IndexProbe.iterate is not PerBindingIndexProbe.iterate
    probe = grouped.step_ops[-1].extend
    list(grouped.execute_iter(limit=1))
    assert probe.stats.rows_in == 1
    list(grouped.execute_iter(limit=40))
    assert 1 < probe.stats.rows_in <= 2 * 40 + 1
