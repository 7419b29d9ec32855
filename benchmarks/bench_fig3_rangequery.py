"""E3 — Figure 3: one range query answers combined box constraints.

The paper's reduction: a conjunction of ``⊑ a``, ``b ⊑``, ``⊓ c ≠ ∅``
constraints over an unknown box is ONE orthogonal range query in the
2k-dimensional point space.  A grid file [9] over the boxes' points
answers that query directly: the bench builds a ``GridFile(4)`` over
``box.to_point()`` and probes it with
``compile_range(QUERY, 2).clip_finite(UNIVERSE)``.  It checks that the
grid file's rows equal the r-tree and scan tables' rows and compares
their probe costs and times.
"""

import random

import pytest

from benchmarks.conftest import report
from repro.algebra import Region
from repro.boxes import Box, BoxQuery
from repro.spatial import GridFile, SpatialTable, compile_range, figure3_rectangle

UNIVERSE = Box((0.0, 0.0), (100.0, 100.0))
N_OBJECTS = 800


def make_boxes():
    rng = random.Random(42)
    boxes = []
    for i in range(N_OBJECTS):
        lo = (rng.uniform(0, 92), rng.uniform(0, 92))
        boxes.append(
            Box(lo, (lo[0] + rng.uniform(1, 8), lo[1] + rng.uniform(1, 8)))
        )
    return boxes


def make_tables(boxes):
    tables = {}
    for kind in ("rtree", "scan"):
        t = SpatialTable(f"t_{kind}", 2, index=kind, universe=UNIVERSE)
        t.bulk_insert([(i, Region.from_box(b)) for i, b in enumerate(boxes)])
        tables[kind] = t
    return tables


def make_points(boxes):
    """The grid file over the boxes' 2k-dim points, valued by row id."""
    points = GridFile(4)
    for i, b in enumerate(boxes):
        points.insert(b.to_point(), i)
    return points


#: The combined query of Figure 3's shape: containment + cover + overlap.
QUERY = BoxQuery(
    inside=Box((10.0, 10.0), (70.0, 70.0)),
    covers=Box((30.0, 30.0), (30.5, 30.5)),
    overlap=(Box((25.0, 25.0), (40.0, 40.0)),),
)

_boxes = make_boxes()
_tables = make_tables(_boxes)
_points = make_points(_boxes)


def grid_range_query(query):
    """Figure 3's one range query, asked of the grid file of points."""
    rect = compile_range(query, 2).clip_finite(UNIVERSE)
    if rect.is_empty():
        return []
    return [oid for _p, oid in _points.range_search(rect.lo, rect.hi)]


def test_grid_file_range_query(benchmark):
    """The combined query as one rectangle over the grid file: the same
    rows as the r-tree and scan tables."""
    _points.stats.reset()
    oids = grid_range_query(QUERY)
    bucket_reads = _points.stats.bucket_reads
    benchmark(grid_range_query, QUERY)
    for kind in ("rtree", "scan"):
        assert sorted(oids) == sorted(o.oid for o in _tables[kind].range_query(QUERY))
    assert oids
    benchmark.extra_info["bucket_reads"] = bucket_reads
    report(
        "E3: combined query on the grid file of points",
        [{"backend": "gridfile", "rows": len(oids), "bucket_reads": bucket_reads}],
        ["backend", "rows", "bucket_reads"],
    )


@pytest.mark.parametrize("kind", ["rtree", "scan"])
def test_single_range_query(benchmark, kind):
    table = _tables[kind]
    # Per-query probe counters (single run), then timing (many runs).
    table.reset_stats()
    rows = table.range_query(QUERY)
    stats = table.index_stats()
    benchmark(table.range_query, QUERY)
    expected = {o.oid for o in _tables["scan"].range_query(QUERY)}
    assert {o.oid for o in rows} == expected
    benchmark.extra_info["backend"] = kind
    benchmark.extra_info["index_stats"] = stats
    report(
        f"E3: combined query on {kind}",
        [{"backend": kind, "rows": len(rows), **stats}],
        ["backend", "rows"] + [k for k in stats if k != "kind"],
    )


def test_figure3_rectangle_shape(benchmark):
    """The literal Figure 3 picture: intervals as 2-D points."""
    pr = figure3_rectangle(a=(4, 5), b=(0, 10), c=(7, 9))
    rows = [
        {
            "axis": "start (lo)",
            "from": f"{pr.lo[0]:g}",
            "to": f"{pr.hi[0]:g}",
        },
        {
            "axis": "end (hi)",
            "from": f"{pr.lo[1]:g}",
            "to": f"{pr.hi[1]:g}",
        },
    ]
    report("E3: Figure 3 rectangle for a=[4,5) b=[0,10) c=[7,9)", rows,
           ["axis", "from", "to"])
    # start must lie in [0, 4], end in [7+, 10]: the shaded rectangle.
    assert pr.lo[0] == 0 and pr.hi[0] == 4
    assert 7 < pr.lo[1] <= 7 + 1e-6 and pr.hi[1] == 10


def test_selective_query_beats_scan_probes(benchmark):
    """An R-tree range query must touch far fewer entries than a scan."""
    table = _tables["rtree"]
    q = BoxQuery(overlap=(Box((50.0, 50.0), (52.0, 52.0)),))
    table.reset_stats()
    rows = table.range_query(q)
    reads = table.index_stats()["node_reads"]
    benchmark(table.range_query, q)
    assert reads < N_OBJECTS / 4
    report(
        "E3: selectivity",
        [{"rows": len(rows), "node_reads_per_query": reads}],
        ["rows", "node_reads_per_query"],
    )
