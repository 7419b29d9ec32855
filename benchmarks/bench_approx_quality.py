"""E10 — approximation tightness: Algorithm 2 vs the naive transform.

Theorems 15/17 say the BCF-based L/U are the BEST bounding-box
approximations.  This bench measures what "best" buys operationally:
candidate-set inflation when the naive syntactic transform (∧→⊓, ∨→⊔,
¬→TOP) is used instead of U_f for the same query, on formulas where they
differ (the paper's hidden-atom/consensus cases).
"""

import random


from benchmarks.conftest import report
from repro.algebra import Region
from repro.boolean import Var
from repro.boxes import (
    Box,
    BoxQuery,
    evaluate_boxfunc,
    naive_transform,
    upper_approximation,
)
from repro.spatial import SpatialTable

UNIVERSE = Box((0.0, 0.0), (100.0, 100.0))
N = 600

#: The upper bound t of a range constraint x ⊆ t, written in FACTORED
#: form: t = D ∧ (C ∨ E).  The paper's own example of representation
#: dependence — the naive transform gives ⌈D⌉ ⊓ (⌈C⌉ ⊔ ⌈E⌉), while
#: Algorithm 2 (working on the BCF, an SOP) gives the strictly tighter
#: (⌈D⌉⊓⌈C⌉) ⊔ (⌈D⌉⊓⌈E⌉).  With C and E far apart and D spanning the
#: gap, the naive box admits everything inside ⌈D⌉ while the best box is
#: empty.
C, D, E = (Var(v) for v in "CDE")
FORMULA = D & (C | E)


def _table():
    rng = random.Random(3)
    t = SpatialTable("objs", 2, universe=UNIVERSE)
    rows = []
    for i in range(N):
        lo = (rng.uniform(0, 90), rng.uniform(0, 90))
        hi = (lo[0] + rng.uniform(1, 10), lo[1] + rng.uniform(1, 10))
        rows.append((i, Region.from_box(Box(lo, hi))))
    t.bulk_insert(rows)
    return t


TABLE = _table()

ENV = {
    "C": Box((0.0, 0.0), (10.0, 10.0)),  # low corner
    "E": Box((90.0, 90.0), (100.0, 100.0)),  # high corner
    "D": Box((30.0, 30.0), (70.0, 70.0)),  # spans the gap, misses both
}


def _candidates(upper_box: Box) -> int:
    q = BoxQuery(inside=upper_box)
    return len(TABLE.range_query(q))


def test_best_upper_candidates(benchmark):
    u = upper_approximation(FORMULA)
    box = evaluate_boxfunc(u, ENV, UNIVERSE)
    count = benchmark(_candidates, box)
    benchmark.extra_info["candidates"] = count


def test_naive_upper_candidates(benchmark):
    n = naive_transform(FORMULA)
    box = evaluate_boxfunc(n, ENV, UNIVERSE)
    count = benchmark(_candidates, box)
    benchmark.extra_info["candidates"] = count


def test_inflation_report(benchmark):
    u_box = evaluate_boxfunc(upper_approximation(FORMULA), ENV, UNIVERSE)
    n_box = evaluate_boxfunc(naive_transform(FORMULA), ENV, UNIVERSE)
    best = _candidates(u_box)
    naive = _candidates(n_box)
    report(
        "E10: candidate inflation, x ⊆ t with t = D ∧ (C ∨ E) factored",
        [
            {"transform": "Algorithm 2 (BCF)", "upper_box": repr(u_box),
             "candidates": best},
            {"transform": "naive syntactic", "upper_box": repr(n_box),
             "candidates": naive},
        ],
        ["transform", "upper_box", "candidates"],
    )
    assert u_box.le(n_box)
    assert best <= naive
    # On this instance the gap must be strict: the naive box is the
    # whole universe while BCF finds ⌈D⌉.
    assert best < naive
