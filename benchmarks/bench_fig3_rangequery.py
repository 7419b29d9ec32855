"""E3 — Figure 3: one range query answers combined box constraints.

The paper's reduction: a conjunction of ``⊑ a``, ``b ⊑``, ``⊓ c ≠ ∅``
constraints over an unknown box is ONE orthogonal range query in the
2k-dimensional point space.  We verify the three backends (grid file on
points, R-tree, scan) return identical rows and compare their probe
costs and times.
"""

import random

import pytest

from benchmarks.conftest import report
from repro.algebra import Region
from repro.boxes import Box, BoxQuery
from repro.spatial import SpatialTable, figure3_rectangle

UNIVERSE = Box((0.0, 0.0), (100.0, 100.0))
N_OBJECTS = 800


def make_tables():
    rng = random.Random(42)
    boxes = []
    for i in range(N_OBJECTS):
        lo = (rng.uniform(0, 92), rng.uniform(0, 92))
        boxes.append(
            Box(lo, (lo[0] + rng.uniform(1, 8), lo[1] + rng.uniform(1, 8)))
        )
    tables = {}
    for kind in ("rtree", "grid", "scan"):
        t = SpatialTable(f"t_{kind}", 2, index=kind, universe=UNIVERSE)
        t.bulk_insert([(i, Region.from_box(b)) for i, b in enumerate(boxes)])
        tables[kind] = t
    return tables


#: The combined query of Figure 3's shape: containment + cover + overlap.
QUERY = BoxQuery(
    inside=Box((10.0, 10.0), (70.0, 70.0)),
    covers=Box((30.0, 30.0), (30.5, 30.5)),
    overlap=(Box((25.0, 25.0), (40.0, 40.0)),),
)

_tables = make_tables()


@pytest.mark.parametrize("kind", ["grid", "rtree", "scan"])
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
