"""E9 — retrieval-order ablation.

The paper picks its order "arbitrarily" (Section 2).  This ablation
quantifies what the choice costs: all 6 orders of the smugglers query
are executed and their intermediate-result sizes compared; the planner's
greedy and histogram-catalog choices are evaluated against the best
observed order, in partial tuples and in wall milliseconds from an
unplanned query to its last answer (plan, compile, execute; the median
of a few runs).  (The planner no-regression gate is a tier-1 exact-count
test, ``tests/test_planner_cost.py``; this file is the paper-figure
artefact.)

``REPRO_BENCH_ORDER_N`` scales the per-table row count (default 18; the
CI smoke job runs a reduced scale).
"""

import os
import statistics
import time

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


def _plan_and_execute_ms(q, pick, repeat=5):
    """Median wall ms of ``pick``-ing an order for a fresh copy of
    ``q`` (no Algorithm-1 memo yet), compiling and executing it."""
    times = []
    for _ in range(repeat):
        fresh = SpatialQuery(system=q.system, tables=q.tables, bindings=q.bindings)
        start = time.perf_counter()
        execute(compile_query(fresh, order=pick(fresh)), "boxplan")
        times.append(time.perf_counter() - start)
    return round(statistics.median(times) * 1e3, 2)


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
    best = rows[0]["order"]
    picks = {
        "greedy": (greedy, lambda fresh: plan_order(fresh, "greedy")),
        "histogram": (hist, lambda fresh: plan_order(fresh, "histogram")),
        # Given, not planned: what the order alone costs.
        "best-observed": (best, lambda _fresh: tuple(best.split("-"))),
    }
    report(
        "E9: planner choices",
        [
            {"strategy": strategy, "order": order,
             "partials": by_name[order]["partials"],
             "region_ops": by_name[order]["region_ops"],
             "plan+exec_ms": _plan_and_execute_ms(q_no_order, pick)}
            for strategy, (order, pick) in picks.items()
        ],
        ["strategy", "order", "partials", "region_ops", "plan+exec_ms"],
    )
