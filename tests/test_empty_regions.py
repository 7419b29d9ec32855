"""Rows whose region is empty answer alike in every mode.

An empty box satisfies every box query with no ``covers`` and no
``overlap``.  No index or kernel holds one, so a table adds its empty
rows to such a query's candidates beside them: the R-tree, the scan
kernel, the delta overlay, the forced bulk joins and the box-level
COUNT all give ``naive``'s answers.  The input is three tables with
oid 0 an empty region and oid 1 the box ``[0,1]²``.
"""

import pytest

from repro.algebra.regions import Region
from repro.boxes.box import Box
from repro.constraints.parser import parse_system
from repro.database import Database
from repro.engine.compiler import compile_query
from repro.engine.executor import answers_as_oid_tuples, execute
from repro.engine.physical import JOIN_STRATEGIES, build_physical_plan
from repro.engine.query import KNNStep, SpatialQuery
from repro.spatial.table import SpatialTable

UNIVERSE = Box((0.0, 0.0), (4.0, 4.0))
EMPTY = Region.from_boxes([])
UNIT = Region.from_box(Box((0.0, 0.0), (1.0, 1.0)))
SYSTEM = "u <= u\nv <= w"
ORDER = ("u", "v", "w")


def _tables(index, staged):
    """``u``, ``v``, ``w``; with ``staged`` the empty row sits in a
    pending write delta, beside a tombstoned empty base row."""
    tables = {}
    for name in ORDER:
        table = SpatialTable(name, 2, index=index, universe=UNIVERSE)
        if staged:
            table.bulk_insert([(1, UNIT), ("ghost", EMPTY)])
            table.stage_insert(0, EMPTY)
            table.delete("ghost")
        else:
            table.bulk_insert([(0, EMPTY), (1, UNIT)])
        tables[name] = table
    return tables


@pytest.mark.parametrize("join", JOIN_STRATEGIES)
@pytest.mark.parametrize("staged", [False, True], ids=["packed", "delta"])
@pytest.mark.parametrize("index", ["rtree", "scan"])
def test_every_access_path_answers_the_empty_rows(index, staged, join):
    query = SpatialQuery(system=parse_system(SYSTEM), tables=_tables(index, staged), bindings={})
    plan = compile_query(query, order=ORDER)
    expected = answers_as_oid_tuples(execute(plan, "naive")[0], ORDER)
    assert len(expected) == 6
    assert answers_as_oid_tuples(execute(plan, "exact")[0], ORDER) == expected
    for mode in ("boxplan", "boxonly"):
        pplan = build_physical_plan(plan, mode, estimate=False, join_strategy=join)
        assert answers_as_oid_tuples(pplan.run()[0], ORDER) == expected, mode


@pytest.mark.parametrize("staged", [False, True], ids=["packed", "delta"])
@pytest.mark.parametrize("index", ["rtree", "scan"])
def test_the_box_count_counts_the_empty_rows(index, staged):
    """The COUNT pushdown adds the empty rows to the index count and
    backs a tombstoned one out."""
    session = Database(tables=_tables(index, staged)).session()
    boxes = session.aggregate("u <= u", exact=False)
    exact = session.aggregate("u <= u")
    assert boxes.answers[0].as_dict()["count"] == exact.answers[0].as_dict()["count"] == 2


def test_a_knn_step_passes_over_the_empty_rows_in_every_mode():
    """An empty region has no distance: no kNN returns it, in any mode."""
    knn = KNNStep(variable="v", k=2, point=(0.5, 0.5))
    query = SpatialQuery(
        system=parse_system(SYSTEM), tables=_tables("rtree", False), bindings={}, knn=knn
    )
    plan = compile_query(query, order=ORDER)
    answers = {
        mode: answers_as_oid_tuples(execute(plan, mode)[0], ORDER)
        for mode in ("naive", "exact", "boxplan", "boxonly")
    }
    assert answers["naive"] == [(0, 1, 1), (1, 1, 1)]
    assert all(got == answers["naive"] for got in answers.values())
