"""Differential tests: a step filter skips only what the range query decided.

In ``boxplan`` a step ``ExactFilter`` does not re-check, for a one-box
candidate, the conjuncts of ``C_i`` that the step's range query decided
(``box_decided``).  These tests hold its answers to ``naive``
and ``exact``, which check every conjunct, over databases built from
``tests/conftest.py``'s ``edge_boxes``: shared edges, sides on the
universe's bounds, degenerate (empty) boxes, and multi-box regions next
to one-box rows, with multi-box constant bindings too.  The joins run
through probes on both index backends, over a pending write delta, and
through the forced ``pbsm`` and ``zorder`` joins; a kNN step puts a
``BoxFilter`` under the step filter.  Against the same physical plan
with the marks cleared, the answer sequence and every counter but
``region_ops`` (which may only drop) are the same.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algebra.regions import Region
from repro.boxes.box import Box
from repro.engine.compiler import compile_query
from repro.engine.executor import answers_as_oid_tuples, execute
from repro.engine.physical import ExactFilter, build_physical_plan
from repro.engine.query import KNNStep, SpatialQuery
from repro.errors import UnsatisfiableError
from repro.spatial.table import SpatialTable
from tests.conftest import CONSTS, UNIVERSE, VARS, constraint_systems, edge_boxes, shifted_seed

#: Box-mode physical layouts: probes, then each bulk join forced.
LAYOUTS = ({}, {"join_strategy": "pbsm", "partitions": 4}, {"join_strategy": "zorder"})


@st.composite
def edge_regions(draw):
    """Up to three edge boxes with their corners sorted (a degenerate side
    still makes an empty box), as one region: empty, one box or several."""
    boxes = []
    for box in draw(st.lists(edge_boxes(), max_size=3)):
        boxes.append(Box(tuple(map(min, box.lo, box.hi)), tuple(map(max, box.lo, box.hi))))
    return Region.from_boxes(boxes)


@st.composite
def edge_workloads(draw):
    """A random system with a table of edge regions per unknown it reads
    and an edge region per constant."""
    system = draw(constraint_systems())
    names = system.variables()
    rows = {v: draw(st.lists(edge_regions(), min_size=1, max_size=6)) for v in VARS if v in names}
    bindings = {c: draw(edge_regions()) for c in CONSTS if c in names}
    return system, rows, bindings


def _tables(rows, index, staged):
    """One table per unknown; with ``staged`` the second half of its rows
    and a tombstoned ghost sit in a pending write delta."""
    tables = {}
    for name, regions in rows.items():
        table = SpatialTable(name, 2, index=index, universe=UNIVERSE)
        loaded = list(enumerate(regions))
        split = len(loaded) // 2 if staged else len(loaded)
        table.bulk_insert(loaded[:split] + ([("ghost", Region.from_box(UNIVERSE))] if staged else []))
        for oid, region in loaded[split:]:
            table.stage_insert(oid, region)
        if staged:
            table.delete("ghost")
            assert table.delta_pending
        tables[name] = table
    return tables


def _run(plan, marks, **layout):
    """A box-mode run: its answer sequence as oid tuples, and its stats."""
    pplan = build_physical_plan(plan, "boxplan", estimate=False, **layout)
    if not marks:
        for op in pplan.operators():
            if isinstance(op, ExactFilter):
                op.box_decided = ()
    answers = [tuple(a[v].oid for v in plan.order) for a in pplan.execute_iter()]
    return answers, pplan.stats()


def _check_plan(plan):
    """``exact`` and every box layout give ``naive``'s answers, and each
    layout the same answer sequence and counters as with the marks
    cleared."""
    expected = answers_as_oid_tuples(execute(plan, "naive")[0], plan.order)
    assert answers_as_oid_tuples(execute(plan, "exact")[0], plan.order) == expected
    for layout in LAYOUTS:
        answers, stats = _run(plan, True, **layout)
        checked, checked_stats = _run(plan, False, **layout)
        assert sorted(answers) == expected, layout
        assert answers == checked, layout
        assert stats.region_ops <= checked_stats.region_ops
        assert stats.to_dict() == {**checked_stats.to_dict(), "region_ops": stats.region_ops}


@given(edge_workloads(), st.sampled_from(("rtree", "scan")), st.booleans())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_boxplan_equals_naive_and_exact_on_edge_boxes(workload, index, staged):
    system, rows, bindings = workload
    tables = _tables(rows, index, staged)
    order = sorted(tables)
    query = SpatialQuery(system=system, tables=tables, bindings=bindings)
    try:
        plan = compile_query(query, order=order)
    except UnsatisfiableError:
        plan = compile_query(query, order=order, check_ground=False)
        assert execute(plan, "naive")[0] == []
        return
    _check_plan(plan)


@given(edge_workloads(), st.integers(0, 10_000), st.integers(1, 4))
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_knn_step_over_edge_boxes(workload, seed, k):
    """A kNN step's rows reach the step filter through a ``BoxFilter``."""
    system, rows, bindings = workload
    tables = _tables(rows, "rtree", staged=False)
    order = sorted(tables)
    rng = random.Random(shifted_seed(seed))
    knn = KNNStep(variable=rng.choice(order), k=k, point=(rng.uniform(0, 32), rng.uniform(0, 32)))
    query = SpatialQuery(system=system, tables=tables, bindings=bindings, knn=knn)
    try:
        plan = compile_query(query, order=order)
    except UnsatisfiableError:
        return
    _check_plan(plan)
