"""E5 — the headline claim: optimized vs naive multi-way spatial join.

Scales the smugglers database and compares the three executors.  The
paper's qualitative prediction (its entire motivation):

* naive cost grows with the PRODUCT of table sizes;
* the optimized plans grow roughly with the sum of candidates actually
  admitted by the level-wise constraints;
* boxplan ≤ exact in region ops (the box filter absorbs most pruning).

The assertions pin those *shapes* (who wins, and that the gap widens).
"""

import os

import pytest

from benchmarks.conftest import report
from repro.datagen import smugglers_query
from repro.engine import compile_query, execute

# REPRO_BENCH_SIZES overrides the scale ladder (the CI smoke job runs a
# reduced one); naive joins are skipped past _NAIVE_LIMIT regardless.
SIZES = [
    int(s)
    for s in os.environ.get("REPRO_BENCH_SIZES", "8,16,24").split(",")
]
_NAIVE_LIMIT = 16

_results = {}


def _run(size: int, mode: str):
    query, _world = smugglers_query(
        seed=size, n_towns=size, n_roads=size, states_grid=(3, 3)
    )
    plan = compile_query(query)
    answers, stats = execute(plan, mode)
    return answers, stats


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("mode", ["naive", "exact", "boxplan"])
def test_join_scaling(benchmark, size, mode):
    if mode == "naive" and size > _NAIVE_LIMIT:
        pytest.skip("naive join beyond 16x16x9 takes minutes; shape "
                    "is already visible at smaller sizes")
    answers, stats = benchmark(_run, size, mode)
    _results[(size, mode)] = stats
    benchmark.extra_info.update(
        {"size": size, **stats.as_dict()}
    )
    report(
        f"E5: size={size} mode={mode}",
        [stats.as_dict()],
        ["mode", "tuples", "partials", "region_ops", "candidates"],
    )


def test_shape_assertions(benchmark):
    """Who wins, by what shape (run after the parametrized benches)."""
    if not _results:
        pytest.skip("scaling benches did not run")
    for size in SIZES:
        exact = _results.get((size, "exact"))
        box = _results.get((size, "boxplan"))
        naive = _results.get((size, "naive"))
        if exact and box:
            assert box.region_ops <= exact.region_ops, size
            assert box.total_candidates <= exact.total_candidates, size
        if naive and box:
            assert box.region_ops < naive.region_ops, size
            assert box.partial_tuples < naive.partial_tuples, size
    rows = [
        {
            "size": size,
            "mode": mode,
            "region_ops": stats.region_ops,
            "partials": stats.partial_tuples,
            "tuples": stats.tuples_emitted,
        }
        for (size, mode), stats in sorted(
            _results.items(), key=lambda kv: (kv[0][0], kv[0][1])
        )
    ]
    report("E5: summary", rows, ["size", "mode", "region_ops", "partials", "tuples"])
