"""Tests for the query engine: compiler, executors, planner."""

import pytest

from repro.database import Session
from repro.algebra.regions import Region
from repro.boxes.box import Box
from repro.constraints.system import ConstraintSystem, nonempty, subset
from repro.datagen.workloads import (
    containment_chain_query,
    overlay_query,
    sandwich_query,
    smugglers_query,
)
from repro.engine.compiler import compile_query
from repro.engine.executor import MODES, answers_as_oid_tuples, execute
from repro.engine.planner import best_order_by_estimate, choose_order, enumerate_orders
from repro.engine.query import SpatialQuery
from repro.errors import (
    CompilationError,
    UnboundVariableError,
    UnsatisfiableError,
)
from repro.spatial.table import SpatialTable

UNIVERSE = Box((0.0, 0.0), (100.0, 100.0))


def _table(name, rows, index="rtree"):
    t = SpatialTable(name, 2, index=index, universe=UNIVERSE)
    t.bulk_insert(rows)
    return t


def _box_region(lo, hi):
    return Region.from_box(Box(lo, hi))


class TestSpatialQueryValidation:
    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            SpatialQuery(
                system=ConstraintSystem.build(nonempty("x")),
                tables={},
            )

    def test_variable_both_bound_and_table(self):
        t = _table("t", [(0, _box_region((0, 0), (1, 1)))])
        with pytest.raises(CompilationError):
            SpatialQuery(
                system=ConstraintSystem.build(nonempty("x")),
                tables={"x": t},
                bindings={"x": _box_region((0, 0), (1, 1))},
            )

    def test_order_must_be_permutation(self):
        t = _table("t", [(0, _box_region((0, 0), (1, 1)))])
        with pytest.raises(CompilationError):
            SpatialQuery(
                system=ConstraintSystem.build(nonempty("x")),
                tables={"x": t},
                order=["x", "y"],
            )

    def test_universe_inference(self):
        t = SpatialTable("t", 2)  # no declared universe
        t.insert(0, _box_region((10, 10), (20, 20)))
        q = SpatialQuery(
            system=ConstraintSystem.build(nonempty("x")),
            tables={"x": t},
        )
        alg = q.algebra()
        assert _box_region((10, 10), (20, 20)).bounding_box().le(
            alg.universe_box
        )


class TestCompiler:
    def test_unsatisfiable_ground_raises(self):
        # Binding violates A ⊆ C.
        t = _table("towns", [(0, _box_region((0, 0), (1, 1)))])
        q = SpatialQuery(
            system=ConstraintSystem.build(
                subset("A", "C"), nonempty("x")
            ),
            tables={"x": t},
            bindings={
                "A": _box_region((0, 0), (50, 50)),
                "C": _box_region((10, 10), (20, 20)),
            },
        )
        with pytest.raises(UnsatisfiableError):
            compile_query(q)

    def test_plan_structure(self):
        q, _m = smugglers_query(seed=0, n_towns=6, n_roads=6)
        plan = compile_query(q)
        assert plan.order == ("T", "R", "B")
        assert [s.variable for s in plan.steps] == ["T", "R", "B"]
        assert plan.steps[0].table.name == "towns"
        text = plan.render()
        assert "step T" in text and "boxes:" in text

    def test_compile_respects_explicit_order(self):
        q, _m = smugglers_query(seed=0, n_towns=6, n_roads=6)
        plan = compile_query(q, order=["B", "R", "T"])
        assert plan.order == ("B", "R", "T")


class TestExecutorAgreement:
    """All modes must return identical answer sets."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_smugglers_modes_agree(self, seed):
        q, _m = smugglers_query(
            seed=seed, n_towns=8, n_roads=8, states_grid=(2, 2)
        )
        plan = compile_query(q)
        reference = None
        for mode in MODES:
            answers, stats = execute(plan, mode)
            got = answers_as_oid_tuples(answers, ["T", "R", "B"])
            if reference is None:
                reference = got
            assert got == reference, f"mode {mode} disagrees"
            assert stats.tuples_emitted == len(got)

    def test_answers_satisfy_system(self):
        q, _m = smugglers_query(seed=3, n_towns=8, n_roads=8)
        plan = compile_query(q)
        answers, _stats = execute(plan, "boxplan")
        alg = plan.algebra
        for a in answers:
            env = dict(q.bindings)
            env.update({k: v.region for k, v in a.items()})
            assert q.system.holds(alg, env)

    @pytest.mark.parametrize("index", ["rtree", "scan"])
    def test_index_backends_agree(self, index):
        q, _m = smugglers_query(
            seed=5, n_towns=10, n_roads=10, index=index
        )
        answers, _stats = Session().run(q, mode="boxplan")
        q2, _m2 = smugglers_query(seed=5, n_towns=10, n_roads=10, index="scan")
        expected, _ = Session().run(q2, mode="exact")
        assert answers_as_oid_tuples(
            answers, ["T", "R", "B"]
        ) == answers_as_oid_tuples(expected, ["T", "R", "B"])

    def test_overlay_modes_agree(self):
        q = overlay_query(n_left=30, n_right=30, seed=2)
        plan = compile_query(q)
        results = {}
        for mode in MODES:
            answers, _ = execute(plan, mode)
            results[mode] = answers_as_oid_tuples(answers, ["x", "y"])
        assert results["naive"] == results["boxplan"]
        assert results["exact"] == results["boxplan"]
        assert results["boxonly"] == results["boxplan"]
        assert results["naive"]  # nontrivial

    def test_sandwich_modes_agree(self):
        q = sandwich_query(n_items=40, seed=1)
        plan = compile_query(q)
        got = {m: answers_as_oid_tuples(execute(plan, m)[0], ["x"]) for m in MODES}
        assert got["naive"] == got["boxplan"] == got["exact"] == got["boxonly"]

    def test_unknown_mode_rejected(self):
        from repro.errors import UnknownModeError

        q = sandwich_query(n_items=5)
        plan = compile_query(q)
        with pytest.raises(UnknownModeError) as info:
            execute(plan, "warp")
        # The dedicated error is a ValueError naming every valid mode.
        assert isinstance(info.value, ValueError)
        message = str(info.value)
        assert "'warp'" in message
        for mode in MODES:
            assert f"'{mode}'" in message
        assert info.value.valid == MODES


class TestPruningEffect:
    """The optimization must actually prune (E5's qualitative claim)."""

    def test_boxplan_prunes_candidates(self):
        q, _m = smugglers_query(
            seed=7, n_towns=16, n_roads=16, states_grid=(2, 2)
        )
        plan = compile_query(q)
        _, naive_stats = execute(plan, "naive")
        _, box_stats = execute(plan, "boxplan")
        assert box_stats.total_candidates < naive_stats.total_candidates
        assert box_stats.region_ops < naive_stats.region_ops

    def test_boxplan_fewer_region_ops_than_exact(self):
        q, _m = smugglers_query(
            seed=7, n_towns=16, n_roads=16, states_grid=(2, 2)
        )
        plan = compile_query(q)
        _, exact_stats = execute(plan, "exact")
        _, box_stats = execute(plan, "boxplan")
        assert box_stats.region_ops <= exact_stats.region_ops

    def test_stats_accounting(self):
        q, _m = smugglers_query(seed=0, n_towns=6, n_roads=6)
        plan = compile_query(q)
        answers, stats = execute(plan, "boxplan")
        assert stats.mode == "boxplan"
        assert len(stats.steps) == 3
        assert stats.tuples_emitted == len(answers)
        d = stats.as_dict()
        assert d["tuples"] == len(answers)
        assert "steps=(" in stats.summary()
        for s in stats.steps:
            assert 0.0 <= s.filter_ratio <= 1.0


class TestPlanner:
    def test_choose_order_prefers_constant_connected(self):
        q, _m = smugglers_query(seed=0, n_towns=6, n_roads=6)
        q2 = SpatialQuery(
            system=q.system, tables=q.tables, bindings=q.bindings
        )
        order = choose_order(q2)
        # T (T ⊄ C) and R (R ∩ A ≠ ∅) are each directly grounded by the
        # constants; either is a sensible first pick.  B's only
        # constant-grounded constraint (B ⊆ C) is unselective and its
        # table is the largest, so it must not come first.
        assert sorted(order) == ["B", "R", "T"]
        assert order[0] in ("T", "R")

    def test_enumerate_orders(self):
        q, _m = smugglers_query(seed=0, n_towns=4, n_roads=4)
        orders = list(enumerate_orders(q))
        assert len(orders) == 6
        assert ("T", "R", "B") in orders

    def test_best_order_runs(self):
        q, _m = smugglers_query(seed=0, n_towns=6, n_roads=6)
        best = best_order_by_estimate(q)
        assert sorted(best) == ["B", "R", "T"]

    def test_all_orders_same_answers(self):
        q, _m = smugglers_query(
            seed=2, n_towns=8, n_roads=8, states_grid=(2, 2)
        )
        reference = None
        for order in enumerate_orders(q):
            plan = compile_query(q, order=order)
            answers, _ = execute(plan, "boxplan")
            got = answers_as_oid_tuples(answers, ["T", "R", "B"])
            if reference is None:
                reference = got
            assert got == reference, f"order {order} disagrees"


class TestContainmentChain:
    def test_chain_modes_agree(self):
        q = containment_chain_query(n_per_table=20, depth=3, seed=4)
        plan = compile_query(q)
        got = {}
        for mode in ["naive", "boxplan"]:
            answers, _ = execute(plan, mode)
            got[mode] = answers_as_oid_tuples(answers, ["x1", "x2", "x3"])
        assert got["naive"] == got["boxplan"]
