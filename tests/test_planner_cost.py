"""Planner edge cases and cost-based order selection.

Covers the ISSUE-1 checklist: empty tables, a single unknown,
all-negative constraint systems, and agreement between the
histogram-estimated and greedy orders on the paper's Section 2 example.
"""

import pytest

from repro.algebra.regions import Region
from repro.boxes.box import Box
from repro.constraints.system import ConstraintSystem, nonempty, overlaps, subset
from repro.datagen.workloads import containment_chain_query, smugglers_query
from repro.engine.compiler import compile_query
from repro.engine.executor import execute
from repro.engine.planner import (
    ORDER_STRATEGIES,
    choose_order,
    estimate_order_cost_histogram,
    plan_order,
)
from repro.engine.query import SpatialQuery
from repro.spatial.table import SpatialTable
from tests.test_planner_reference import CHAIN_QUERIES

UNIVERSE = Box((0.0, 0.0), (100.0, 100.0))


def _table(name, boxes):
    t = SpatialTable(name, 2, universe=UNIVERSE)
    for i, b in enumerate(boxes):
        t.insert(i, Region.from_box(b))
    return t


def _measured_partials(query, order):
    plan = compile_query(query, order=order)
    _answers, stats = execute(plan, "boxplan")
    return stats.partial_tuples


class TestEdgeCases:
    def test_empty_table(self):
        empty = _table("empty", [])
        other = _table("other", [Box((1, 1), (5, 5))])
        q = SpatialQuery(
            system=ConstraintSystem.build(subset("x", "y")),
            tables={"x": empty, "y": other},
        )
        for strategy in ORDER_STRATEGIES:
            order = plan_order(q, strategy)
            assert sorted(order) == ["x", "y"]
        answers, stats = execute(
            compile_query(q, order=plan_order(q, "histogram")), "boxplan"
        )
        assert answers == []
        assert len(stats.steps) == 2

    def test_all_tables_empty(self):
        q = SpatialQuery(
            system=ConstraintSystem.build(overlaps("x", "y")),
            tables={"x": _table("a", []), "y": _table("b", [])},
        )
        for strategy in ORDER_STRATEGIES:
            assert sorted(plan_order(q, strategy)) == ["x", "y"]

    def test_single_unknown(self):
        t = _table("t", [Box((i, i), (i + 2, i + 2)) for i in range(10)])
        q = SpatialQuery(
            system=ConstraintSystem.build(nonempty("x")),
            tables={"x": t},
        )
        for strategy in ORDER_STRATEGIES:
            assert plan_order(q, strategy) == ("x",)
        assert estimate_order_cost_histogram(q, ("x",)) > 0

    def test_all_negative_system(self):
        boxes_a = [Box((i * 3, 0), (i * 3 + 2, 4)) for i in range(8)]
        boxes_b = [Box((0, i * 3), (4, i * 3 + 2)) for i in range(12)]
        q = SpatialQuery(
            system=ConstraintSystem.build(
                overlaps("x", "y"), nonempty("x"), nonempty("y")
            ),
            tables={"x": _table("a", boxes_a), "y": _table("b", boxes_b)},
        )
        greedy = plan_order(q, "greedy")
        hist = plan_order(q, "histogram")
        assert sorted(greedy) == sorted(hist) == ["x", "y"]
        assert _measured_partials(q, hist) <= _measured_partials(q, greedy)

    def test_unknown_strategy_rejected(self):
        t = _table("t", [Box((0, 0), (1, 1))])
        q = SpatialQuery(
            system=ConstraintSystem.build(nonempty("x")), tables={"x": t}
        )
        with pytest.raises(ValueError):
            plan_order(q, "oracle")
        # The raw-size strategy is gone (it never beat both others on
        # measured partial tuples; benchmarks/results/pr16_*.md).
        assert ORDER_STRATEGIES == ("greedy", "histogram")
        with pytest.raises(ValueError):
            plan_order(q, "estimate")


class TestSection2Agreement:
    """The paper's Section 2 example: histogram vs greedy."""

    #: The planner no-regression gate (formerly in ``ci_smoke.py``) as
    #: exact counts: workload -> (greedy order, its measured partial
    #: tuples, histogram order, its measured partial tuples).  The
    #: cost-based planner must never measure worse than the greedy
    #: heuristic it falls back to.
    PINNED = {
        ("smugglers", 21): ("RTB", 10, "RTB", 10),
        ("smugglers", 3): ("RTB", 12, "TRB", 12),
        ("smugglers", 7): ("RTB", 6, "RTB", 6),
        ("smugglers", 0): ("RTB", 20, "TRB", 16),
        ("chain", 0): ("x1 x2 x3", 26, "x1 x2 x3", 26),
        ("chain", 4): ("x1 x2 x3", 28, "x1 x2 x3", 28),
    }

    @pytest.mark.parametrize("workload,seed", sorted(PINNED))
    def test_histogram_never_worse_than_greedy(self, workload, seed):
        if workload == "smugglers":
            q, _world = smugglers_query(
                seed=seed, n_towns=12, n_roads=12, states_grid=(3, 3)
            )
            q2 = SpatialQuery(
                system=q.system, tables=q.tables, bindings=q.bindings
            )
        else:
            q2 = containment_chain_query(n_per_table=25, depth=3, seed=seed)
        greedy = choose_order(q2)
        hist = plan_order(q2, "histogram")
        sep = "" if workload == "smugglers" else " "
        got = (
            sep.join(greedy),
            _measured_partials(q2, greedy),
            sep.join(hist),
            _measured_partials(q2, hist),
        )
        assert got == self.PINNED[workload, seed]
        assert got[3] <= got[1]

    def test_histogram_estimates_rank_orders(self):
        q, _world = smugglers_query(
            seed=21, n_towns=14, n_roads=14, states_grid=(3, 3)
        )
        q2 = SpatialQuery(
            system=q.system, tables=q.tables, bindings=q.bindings
        )
        from repro.engine.planner import enumerate_orders

        costs = {
            o: estimate_order_cost_histogram(q2, o)
            for o in enumerate_orders(q2)
        }
        assert len(set(costs.values())) > 1
        # The paper's "arbitrary" town-first choice and the road-first
        # order are the two cheap ones; a state-first order is the
        # expensive end (states ⊆ C admits every state).
        worst = max(costs, key=costs.get)
        assert worst[0] == "B"

    def test_histogram_all_strategies_same_answers(self):
        q, _world = smugglers_query(
            seed=2, n_towns=8, n_roads=8, states_grid=(2, 2)
        )
        q2 = SpatialQuery(
            system=q.system, tables=q.tables, bindings=q.bindings
        )
        from repro.engine.executor import answers_as_oid_tuples

        reference = None
        for strategy in ORDER_STRATEGIES:
            plan = compile_query(q2, order=plan_order(q2, strategy))
            answers, _stats = execute(plan, "boxplan")
            got = answers_as_oid_tuples(answers, ["T", "R", "B"])
            if reference is None:
                reference = got
            assert got == reference, strategy


class TestGreedyDefault:
    """Greedy is the order every ``Session`` call runs; the histogram
    search is opt-in.  On the order-sensitive chains its order measures
    within 5% of the histogram order's partial tuples (here: never
    more)."""

    #: ``(chain, unknowns) -> (greedy order's measured partial tuples,
    #: histogram order's)``.  The overlap chain at 4 unknowns reads
    #: 2 096 786 against 2 125 266 but drains for seconds, so tier-1
    #: stops at 3.
    CHAIN_PARTIALS = {
        ("containment", 4): (35, 35),
        ("containment", 5): (33, 33),
        ("overlap", 3): (52116, 55399),
    }

    @pytest.mark.parametrize("kind,n", sorted(CHAIN_PARTIALS))
    def test_greedy_within_five_percent_of_histogram(self, kind, n):
        query = CHAIN_QUERIES[kind](n)
        greedy = choose_order(query)
        hist = plan_order(query, "histogram")
        got = (_measured_partials(query, greedy), _measured_partials(query, hist))
        assert got == self.CHAIN_PARTIALS[kind, n]
        assert got[0] <= 1.05 * got[1]
