"""E9 — retrieval-order ablation.

The paper picks its order "arbitrarily" (Section 2).  This ablation
quantifies what the choice costs: all 6 orders of the smugglers query
are executed and their intermediate-result sizes compared; the planner's
greedy and histogram-catalog choices are evaluated against the best
observed order.  (The planner no-regression gate is a tier-1 exact-count
test, ``tests/test_planner_cost.py``; this file is the paper-figure
artefact.)

``REPRO_BENCH_ORDER_N`` scales the per-table row count (default 18; the
CI smoke job runs a reduced scale).
"""

import os

import pytest

from benchmarks.conftest import report
from repro.datagen import smugglers_query
from repro.engine import (
    SpatialQuery,
    choose_order,
    compile_query,
    enumerate_orders,
    execute,
    plan_order,
)

N = int(os.environ.get("REPRO_BENCH_ORDER_N", "18"))

_rows = []


def _query():
    q, _ = smugglers_query(seed=21, n_towns=N, n_roads=N, states_grid=(3, 3))
    return q


ORDERS = list(enumerate_orders(_query()))


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: "-".join(o))
def test_order(benchmark, order):
    q = _query()

    def run():
        plan = compile_query(q, order=order)
        return execute(plan, "boxplan")

    answers, stats = benchmark(run)
    _rows.append(
        {
            "order": "-".join(order),
            "partials": stats.partial_tuples,
            "candidates": stats.total_candidates,
            "region_ops": stats.region_ops,
            "tuples": stats.tuples_emitted,
        }
    )
    benchmark.extra_info.update(_rows[-1])


def test_order_summary_and_planner_quality(benchmark):
    if not _rows:
        pytest.skip("order benches did not run")
    rows = sorted(_rows, key=lambda r: r["region_ops"])
    report(
        "E9: retrieval-order ablation",
        rows,
        ["order", "partials", "candidates", "region_ops", "tuples"],
    )
    # All orders find the same number of answers.
    assert len({r["tuples"] for r in rows}) == 1
    # The spread must be real (order matters).
    assert rows[0]["region_ops"] < rows[-1]["region_ops"]
    # The planner's greedy order should not be the worst one.
    q = _query()
    q_no_order = SpatialQuery(
        system=q.system, tables=q.tables, bindings=q.bindings
    )
    greedy = "-".join(choose_order(q_no_order))
    worst = rows[-1]["order"]
    by_name = {r["order"]: r for r in rows}
    assert by_name[greedy]["region_ops"] <= by_name[worst]["region_ops"]
    hist = "-".join(plan_order(q_no_order, "histogram"))
    report(
        "E9: planner choices",
        [
            {"strategy": "greedy", "order": greedy,
             "partials": by_name[greedy]["partials"],
             "region_ops": by_name[greedy]["region_ops"]},
            {"strategy": "histogram", "order": hist,
             "partials": by_name[hist]["partials"],
             "region_ops": by_name[hist]["region_ops"]},
            {"strategy": "best-observed", "order": rows[0]["order"],
             "partials": rows[0]["partials"],
             "region_ops": rows[0]["region_ops"]},
        ],
        ["strategy", "order", "partials", "region_ops"],
    )
