"""Tests for the streaming (pipelined) executor and dimension coverage."""

import pytest

from repro.database import Session
from repro.algebra.regions import Region
from repro.boxes.box import Box
from repro.constraints.system import ConstraintSystem, nonempty, overlaps, subset
from repro.datagen.workloads import smugglers_query
from repro.engine.compiler import compile_query
from repro.engine.executor import answers_as_oid_tuples, execute, execute_iter
from repro.engine.query import SpatialQuery
from repro.spatial.table import SpatialTable


class TestStreamingExecutor:
    def test_same_answer_set_as_batch(self):
        q, _m = smugglers_query(
            seed=9, n_towns=10, n_roads=10, states_grid=(2, 2)
        )
        plan = compile_query(q)
        batch, _ = execute(plan, "boxplan")
        streamed = list(execute_iter(plan, "boxplan"))
        assert answers_as_oid_tuples(streamed, ["T", "R", "B"]) == (
            answers_as_oid_tuples(batch, ["T", "R", "B"])
        )

    def test_exact_mode_streams_too(self):
        q, _m = smugglers_query(seed=9, n_towns=8, n_roads=8)
        plan = compile_query(q)
        batch, _ = execute(plan, "exact")
        streamed = list(execute_iter(plan, "exact"))
        assert answers_as_oid_tuples(streamed, ["T", "R", "B"]) == (
            answers_as_oid_tuples(batch, ["T", "R", "B"])
        )

    def test_all_four_modes_stream(self):
        q, _m = smugglers_query(seed=0, n_towns=6, n_roads=6)
        plan = compile_query(q)
        reference = None
        for mode in ("naive", "exact", "boxplan", "boxonly"):
            streamed = list(execute_iter(plan, mode))
            got = answers_as_oid_tuples(streamed, ["T", "R", "B"])
            if reference is None:
                reference = got
            assert got == reference, f"mode {mode} diverged"

    def test_unknown_mode(self):
        from repro.errors import UnknownModeError

        q, _m = smugglers_query(seed=0, n_towns=4, n_roads=4)
        plan = compile_query(q)
        with pytest.raises(UnknownModeError):
            list(execute_iter(plan, "warp"))

    def test_limit_is_prefix_of_unlimited(self):
        q, _m = smugglers_query(
            seed=11, n_towns=25, n_roads=25, states_grid=(3, 3)
        )
        plan = compile_query(q)
        full = [
            tuple(a[v].oid for v in ("T", "R", "B"))
            for a in execute_iter(plan, "boxplan")
        ]
        assert len(full) >= 2
        for k in (1, 2, len(full), len(full) + 5):
            limited = [
                tuple(a[v].oid for v in ("T", "R", "B"))
                for a in execute_iter(plan, "boxplan", limit=k)
            ]
            assert limited == full[: k]

    def test_limit_zero_and_negative_yield_nothing(self):
        q, _m = smugglers_query(seed=0, n_towns=4, n_roads=4)
        plan = compile_query(q)
        assert list(execute_iter(plan, "boxplan", limit=0)) == []
        assert list(execute_iter(plan, "boxplan", limit=-1)) == []

    def test_first_k_stops_early(self):
        q, _m = smugglers_query(
            seed=11, n_towns=25, n_roads=25, states_grid=(3, 3)
        )
        plan = compile_query(q)
        all_answers, _ = execute(plan, "boxplan")
        assert len(all_answers) >= 2
        got = Session().run(plan, limit=2).answers
        assert len(got) == 2
        full = {
            t
            for t in answers_as_oid_tuples(all_answers, ["T", "R", "B"])
        }
        for a in got:
            assert (a["T"].oid, a["R"].oid, a["B"].oid) in full

    def test_first_k_touches_less_than_full_run(self):
        q, _m = smugglers_query(
            seed=11, n_towns=25, n_roads=25, states_grid=(3, 3)
        )
        plan = compile_query(q)
        for t in q.tables.values():
            t.reset_stats()
        Session().run(plan, limit=1)
        probes_first = sum(t.probes for t in q.tables.values())
        for t in q.tables.values():
            t.reset_stats()
        list(execute_iter(plan, "boxplan"))
        probes_full = sum(t.probes for t in q.tables.values())
        assert probes_first < probes_full

    def test_first_answer_costs_under_a_quarter_of_the_drain(self):
        """The streaming gate, in counts: the operator tree pipelines,
        so the first answer of the 280-town smugglers workload costs
        under 25% of the full drain's partial tuples, region ops, node
        reads and probes (3/305, 42/9 994, 49/1 238 and 3/210 when
        written)."""
        q, _m = smugglers_query(
            seed=13, n_towns=280, n_roads=280, states_grid=(4, 4)
        )
        first = Session().run(q, limit=1)
        full = Session().run(q)
        assert len(first.answers) == 1 and len(full.answers) > 1
        for counter in ("partial_tuples", "region_ops", "node_reads", "index_probes"):
            spent = getattr(first.stats, counter)
            assert spent < 0.25 * getattr(full.stats, counter), counter

    def test_answers_are_independent_dicts(self):
        q, _m = smugglers_query(seed=9, n_towns=8, n_roads=8)
        plan = compile_query(q)
        answers = list(execute_iter(plan, "boxplan"))
        if len(answers) >= 2:
            assert answers[0] is not answers[1]
            answers[0]["T"] = None
            assert answers[1]["T"] is not None


class TestOtherDimensions:
    """The engine is dimension-generic; exercise 1-D and 3-D."""

    def _run_1d(self, index):
        universe = Box((0.0,), (100.0,))
        segments = SpatialTable("segments", 1, index=index, universe=universe)
        data = [
            (0, (5.0, 15.0)),
            (1, (20.0, 45.0)),
            (2, (40.0, 60.0)),
            (3, (70.0, 72.0)),
        ]
        for oid, (a, b) in data:
            segments.insert(oid, Region.from_box(Box((a,), (b,))))
        window = Region.from_box(Box((18.0,), (65.0,)))
        q = SpatialQuery(
            system=ConstraintSystem.build(
                subset("x", "W"), nonempty("x")
            ),
            tables={"x": segments},
            bindings={"W": window},
            order=["x"],
        )
        plan = compile_query(q)
        answers, _ = execute(plan, "boxplan")
        return sorted(a["x"].oid for a in answers)

    @pytest.mark.parametrize("index", ["rtree", "scan"])
    def test_1d_interval_query(self, index):
        assert self._run_1d(index) == [1, 2]

    def test_3d_overlap_join(self):
        universe = Box((0.0, 0.0, 0.0), (50.0, 50.0, 50.0))
        import random

        rng = random.Random(3)
        a = SpatialTable("a", 3, universe=universe)
        b = SpatialTable("b", 3, universe=universe)
        boxes_a, boxes_b = [], []
        for i in range(25):
            lo = tuple(rng.uniform(0, 44) for _ in range(3))
            box = Box(lo, tuple(c + rng.uniform(1, 6) for c in lo))
            boxes_a.append(box)
            a.insert(i, Region.from_box(box))
        for j in range(25):
            lo = tuple(rng.uniform(0, 44) for _ in range(3))
            box = Box(lo, tuple(c + rng.uniform(1, 6) for c in lo))
            boxes_b.append(box)
            b.insert(j, Region.from_box(box))
        q = SpatialQuery(
            system=ConstraintSystem.build(overlaps("x", "y")),
            tables={"x": a, "y": b},
            order=["x", "y"],
        )
        plan = compile_query(q)
        answers, _ = execute(plan, "boxplan")
        got = {(ans["x"].oid, ans["y"].oid) for ans in answers}
        expected = {
            (i, j)
            for i, ba in enumerate(boxes_a)
            for j, bb in enumerate(boxes_b)
            if ba.overlaps(bb)
        }
        assert got == expected
