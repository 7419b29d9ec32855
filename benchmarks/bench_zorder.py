"""E8 — comparison with the z-order (PROBE) spatial join [10].

The paper positions its method against Orenstein-Manola: their z-order
join handles the binary overlay query with a special-purpose structure;
the constraint method handles arbitrary Boolean systems on a generic
range-query index.  On the one query both support (``x ∧ y ≠ 0``) we
compare:

* the z-order merge join, and
* our compiled box plan over an R-tree.

Both must return the same pairs; the report shows the cost shape.  The
paper's remark "it seems possible to extend our approach to make use of
z-ordering methods" is not evaluated (no hybrid is built).
"""

import random


from benchmarks.conftest import report
from repro.algebra import Region
from repro.boxes import Box
from repro.engine import compile_query, execute
from repro.spatial import ZGrid, ZOrderIndex, zorder_join

N = 120
UNIVERSE = Box((0.0, 0.0), (100.0, 100.0))


def _boxes(seed, n=N):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        lo = (rng.uniform(0, 92), rng.uniform(0, 92))
        out.append(
            Box(lo, (lo[0] + rng.uniform(1, 8), lo[1] + rng.uniform(1, 8)))
        )
    return out


LEFT = _boxes(1)
RIGHT = _boxes(2)


def _zorder_run():
    grid = ZGrid(UNIVERSE, levels=6)
    left = ZOrderIndex(grid)
    right = ZOrderIndex(grid)
    for i, b in enumerate(LEFT):
        left.insert(b, i)
    for j, b in enumerate(RIGHT):
        right.insert(b, j)
    return sorted(zorder_join(left, right, exact=True))


def _boxplan_run():
    from repro.engine import SpatialQuery
    from repro.constraints import ConstraintSystem, overlaps
    from repro.spatial import SpatialTable

    lt = SpatialTable("L", 2, universe=UNIVERSE)
    rt = SpatialTable("R", 2, universe=UNIVERSE)
    lt.bulk_insert([(i, Region.from_box(b)) for i, b in enumerate(LEFT)])
    rt.bulk_insert([(j, Region.from_box(b)) for j, b in enumerate(RIGHT)])
    q = SpatialQuery(
        system=ConstraintSystem.build(overlaps("x", "y")),
        tables={"x": lt, "y": rt},
        order=["x", "y"],
    )
    plan = compile_query(q)
    answers, stats = execute(plan, "boxplan")
    return sorted(
        (a["x"].oid, a["y"].oid) for a in answers
    ), stats


def test_zorder_join(benchmark):
    pairs = benchmark(_zorder_run)
    expected = sorted(
        (i, j)
        for i, lb in enumerate(LEFT)
        for j, rb in enumerate(RIGHT)
        if lb.overlaps(rb)
    )
    assert pairs == expected
    benchmark.extra_info["pairs"] = len(pairs)


def test_boxplan_join(benchmark):
    (pairs, stats) = benchmark(_boxplan_run)
    expected = sorted(
        (i, j)
        for i, lb in enumerate(LEFT)
        for j, rb in enumerate(RIGHT)
        if lb.overlaps(rb)
    )
    assert pairs == expected
    benchmark.extra_info.update(stats.as_dict())
    report(
        "E8: overlay join result agreement",
        [
            {
                "method": "zorder-merge",
                "pairs": len(expected),
            },
            {
                "method": "boxplan+rtree",
                "pairs": len(pairs),
            },
        ],
        ["method", "pairs"],
    )
