"""Differential property tests: kNN and aggregation vs brute force.

The new workload families both have trivially correct references —
sort-all-rows-by-distance for kNN, a Python fold over the naive answer
set for aggregation — so every optimized path is checked for *equality*
against them, across execution mode × join strategy × PBSM tile count
(the four-mode answer-set equality pattern extended to the new
subsystem).  Workloads come from the shared seeded factory in
``tests/conftest.py``; CI replays this module under a seed matrix.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

import reference_knn
from repro.boxes.box import Box
from repro.engine.compiler import compile_query
from repro.engine.executor import MODES, answers_as_oid_tuples, execute
from repro.engine.physical import build_physical_plan
from repro.engine.query import AggregateSpec, KNNStep, SpatialQuery
from repro.errors import UnsatisfiableError
from repro.spatial.columnar import ColumnStore
from tests.conftest import (
    constraint_systems,
    edge_box_queries,
    edge_boxes,
    make_workload,
    random_table,
    scan_twin,
    shifted_seed,
)

STRATEGIES = ("probe", "pbsm", "zorder")


def _knn_reference_oids(table, anchor, k):
    """Brute-force kNN oid set (the deterministic selection)."""
    return {obj.oid for _d, obj in table.nearest_bruteforce(anchor, k)}


# ---------------------------------------------------------------------------
# Index-level: best-first == brute force for every index and anchor
# ---------------------------------------------------------------------------


@given(
    st.integers(0, 10_000),
    st.integers(1, 40),
    st.booleans(),
)
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_table_nearest_equals_bruteforce(seed, k, box_anchor):
    """`SpatialTable.nearest` == the sorted-scan reference for every
    sampled k, anchor (point or box), and dataset — including k > n —
    on the r-tree table (the best-first browse) and on its scan-backend
    twin over the same rows (the columnar distance kernel)."""
    rng = random.Random(shifted_seed(seed))
    table = random_table("t", rng, rng.randint(1, 30))
    if box_anchor:
        lo = (rng.uniform(-4, 30), rng.uniform(-4, 30))
        anchor = Box(lo, (lo[0] + rng.uniform(1, 6), lo[1] + rng.uniform(1, 6)))
    else:
        anchor = (rng.uniform(-4, 36), rng.uniform(-4, 36))
    want = table.nearest_bruteforce(anchor, k)
    for backend in (table, scan_twin(table)):
        got = backend.nearest(anchor, k)
        assert [(round(d, 9), o.oid) for d, o in got] == [
            (round(d, 9), o.oid) for d, o in want
        ], f"{backend.index_kind} diverged"


# ---------------------------------------------------------------------------
# Query-level: the kNN restriction across mode × strategy × partitions
# ---------------------------------------------------------------------------


@given(
    constraint_systems(),
    st.integers(0, 10_000),
    st.integers(1, 6),
    st.sampled_from(STRATEGIES),
    st.integers(1, 5),
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_knn_query_differential(system, seed, k, strategy, n_partitions):
    """A kNN-restricted query returns, in every mode/strategy/partition
    configuration, exactly the plain query's answers whose kNN variable
    lies in the brute-force k-nearest set."""
    tables, bindings = make_workload(seed, system=system)
    if not tables:
        return
    rng = random.Random(shifted_seed(seed) + 1)
    order = sorted(tables)
    variable = rng.choice(order)
    use_ref = len(order) > 1 and rng.random() < 0.5 and variable != order[0]
    if use_ref:
        ref = rng.choice([v for v in order if v < variable])
        knn = KNNStep(variable=variable, k=k, ref=ref)
    else:
        point = (rng.uniform(0, 32), rng.uniform(0, 32))
        knn = KNNStep(variable=variable, k=k, point=point)
    query = SpatialQuery(
        system=system, tables=tables, bindings=bindings, knn=knn
    )
    plain = SpatialQuery(system=system, tables=tables, bindings=bindings)
    try:
        plan = compile_query(query, order=order)
        plain_plan = compile_query(plain, order=order)
    except UnsatisfiableError:
        return

    plain_answers, _ = execute(plain_plan, "naive")
    if use_ref:
        expected = sorted(
            tuple(a[v].oid for v in order)
            for a in plain_answers
            if a[variable].oid
            in _knn_reference_oids(tables[variable], a[knn.ref].box, k)
        )
    else:
        knn_oids = _knn_reference_oids(tables[variable], knn.point, k)
        expected = sorted(
            tuple(a[v].oid for v in order)
            for a in plain_answers
            if a[variable].oid in knn_oids
        )

    for mode in MODES:
        answers, _ = execute(plan, mode)
        got = answers_as_oid_tuples(answers, order)
        assert got == expected, f"mode {mode} diverged for:\n{system}"
    for mode in ("boxplan", "boxonly"):
        pplan = build_physical_plan(
            plan,
            mode,
            estimate=False,
            partitions=n_partitions,
            join_strategy=strategy,
        )
        got = answers_as_oid_tuples(list(pplan.execute_iter()), order)
        assert got == expected, (
            f"{mode}/{strategy}/partitions={n_partitions} diverged"
        )


# ---------------------------------------------------------------------------
# Aggregation: engine fold == Python fold over the naive answer set
# ---------------------------------------------------------------------------


def _python_aggregate(answers, spec):
    """The Python reference: fold the answer dicts directly.

    Mirrors SQL's empty-input rule: an ungrouped aggregate of nothing
    is one row (count 0, min/max None), a grouped one is no rows.
    """
    if not answers and not spec.group_by:
        return {
            (): {
                label: (0 if op == "count" else None)
                for label, (op, _t) in zip(spec.labels(), spec.aggregates)
            }
        }
    groups = {}
    for a in answers:
        key = tuple(a[v].oid for v in spec.group_by)
        acc = groups.setdefault(key, {})
        for label, (op, target) in zip(spec.labels(), spec.aggregates):
            if op == "count":
                acc[label] = acc.get(label, 0) + 1
                continue
            measure = a[target].box.volume()
            if label not in acc:
                acc[label] = measure
            else:
                acc[label] = (
                    min(acc[label], measure)
                    if op == "min"
                    else max(acc[label], measure)
                )
    return {
        key: {
            k: (round(v, 9) if v is not None else None)
            for k, v in acc.items()
        }
        for key, acc in groups.items()
    }


@given(
    constraint_systems(),
    st.integers(0, 10_000),
    st.sampled_from(STRATEGIES),
    st.integers(1, 5),
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_aggregate_differential(system, seed, strategy, n_partitions):
    """Aggregate rows equal the Python fold over the naive answers in
    every mode, join strategy, and partition count."""
    tables, bindings = make_workload(seed, system=system)
    if not tables:
        return
    rng = random.Random(shifted_seed(seed) + 2)
    order = sorted(tables)
    target = rng.choice(order)
    group_by = tuple(
        v for v in order if rng.random() < 0.4
    )
    spec = AggregateSpec(
        aggregates=(("count", None), ("min", target), ("max", target)),
        group_by=group_by,
    )
    query = SpatialQuery(
        system=system, tables=tables, bindings=bindings, aggregate=spec
    )
    plain = SpatialQuery(system=system, tables=tables, bindings=bindings)
    try:
        plan = compile_query(query, order=order)
        plain_plan = compile_query(plain, order=order)
    except UnsatisfiableError:
        return

    plain_answers, _ = execute(plain_plan, "naive")
    expected = _python_aggregate(plain_answers, spec)

    def check(rows, label):
        got = {
            tuple(oid for _v, oid in row.group): {
                k: (round(v, 9) if v is not None else None)
                for k, v in row.values.items()
            }
            for row in rows
        }
        assert got == expected, f"{label} diverged for:\n{system}"

    for mode in MODES:
        rows, stats = execute(plan, mode)
        check(rows, f"mode {mode}")
        assert stats.tuples_emitted == len(expected)
    for mode in ("boxplan", "boxonly"):
        pplan = build_physical_plan(
            plan,
            mode,
            estimate=False,
            partitions=n_partitions,
            join_strategy=strategy,
        )
        check(
            list(pplan.execute_iter()),
            f"{mode}/{strategy}/partitions={n_partitions}",
        )


@given(st.integers(0, 10_000), st.booleans())
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_box_count_pushdown_differential(seed, use_overlap):
    """The box-level COUNT (exact=False) equals a Python count of the
    rows whose box matches the step's compiled template — on the r-tree
    pushdown path and the scan fallback alike."""
    from repro.constraints.system import ConstraintSystem, overlaps, subset
    from tests.conftest import random_binding

    rng = random.Random(shifted_seed(seed) + 3)
    bindings = {"P": random_binding(rng)}
    system = ConstraintSystem.build(
        overlaps("u", "P") if use_overlap else subset("u", "P")
    )
    results = {}
    for index in ("rtree", "scan"):
        rng_t = random.Random(shifted_seed(seed) + 4)
        table = random_table("u", rng_t, rng_t.randint(1, 25), index=index)
        query = SpatialQuery(
            system=system,
            tables={"u": table},
            bindings=bindings,
            aggregate=AggregateSpec(exact=False),
        )
        plan = compile_query(query)
        pplan = build_physical_plan(plan, "boxplan", estimate=False)
        rows, _stats = pplan.run()
        assert len(rows) == 1 and rows[0].group == ()
        results[index] = rows[0].values["count"]

        template = plan.steps[0].template
        env = {"P": bindings["P"].bounding_box()}
        box_query = template.instantiate(env, plan.algebra.universe_box)
        expected = sum(
            1
            for obj in table
            if not obj.box.is_empty() and box_query.matches(obj.box)
        )
        assert results[index] == expected, f"{index} pushdown diverged"
    assert results["rtree"] == results["scan"]


# ---------------------------------------------------------------------------
# Columnar kernels: box-mode execution == exact mode
# ---------------------------------------------------------------------------


@given(
    constraint_systems(),
    st.integers(0, 10_000),
    st.sampled_from(STRATEGIES),
    st.integers(1, 5),
    st.sampled_from(("rtree", "scan")),
)
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_vectorized_execution_differential(
    system, seed, strategy, n_partitions, index
):
    """Box-mode plans return exactly the ``exact`` mode's answers — which
    runs no box kernel — in every box mode × join strategy × partition
    count × index backend.  This drives
    every engine-level kernel: batched scan filters, columnar R-tree
    descent, the PBSM tile sweep, bulk-join batch matching, and batched
    z-order keys."""
    tables, bindings = make_workload(seed, system=system, index=index)
    if not tables:
        return
    order = sorted(tables)
    query = SpatialQuery(system=system, tables=tables, bindings=bindings)
    try:
        plan = compile_query(query, order=order)
    except UnsatisfiableError:
        return
    oracle_plan = build_physical_plan(plan, "exact", estimate=False)
    expected = answers_as_oid_tuples(list(oracle_plan.execute_iter()), order)
    assert oracle_plan.stats().vectorized_batches == 0
    for mode in ("boxplan", "boxonly"):
        pplan = build_physical_plan(
            plan,
            mode,
            estimate=False,
            partitions=n_partitions,
            join_strategy=strategy,
        )
        got = answers_as_oid_tuples(
            list(pplan.execute_iter()), order
        )
        assert got == expected, (
            f"{mode}/{strategy}/partitions={n_partitions}/"
            f"{index} diverged for:\n{system}"
        )


@given(
    st.lists(edge_boxes(), min_size=1, max_size=30),
    edge_box_queries(),
)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_columnar_match_oracle_edge_cases(boxes, query):
    """The batched box filter admits exactly the per-object oracle's
    rows on edge-case inputs — degenerate/point boxes, inverted
    (empty) intervals, unbounded query sides, duplicate coordinates —
    on the full-store and candidate-subset paths."""
    oracle = [
        i
        for i, b in enumerate(boxes)
        if not b.is_empty() and query.matches(b)
    ]
    hits = set(oracle)
    candidates = list(range(0, len(boxes), 2))
    want_subset = [p for p, i in enumerate(candidates) if i in hits]
    store = ColumnStore.bulk(2, boxes, range(len(boxes)))
    assert store.match_positions(query) == oracle
    assert (
        store.match_positions(query, candidates=candidates)
        == want_subset
    )
    assert store.match_rows(query) == oracle


@given(st.integers(0, 10_000), st.integers(1, 12), st.booleans())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_vectorized_nearest_differential(seed, k, box_anchor):
    """`SpatialTable.nearest` returns bit-identical distance/oid
    rankings for point and box anchors: on scan
    tables the columnar kernel against the brute-force scan
    (``nearest_bruteforce``), on indexed tables the browse over the
    array form against the frozen ``_Node`` walk (``reference_knn.py``)."""
    rng = random.Random(shifted_seed(seed) + 5)
    if box_anchor:
        lo = (rng.uniform(-4, 30), rng.uniform(-4, 30))
        anchor = Box(
            lo, (lo[0] + rng.uniform(1, 6), lo[1] + rng.uniform(1, 6))
        )
    else:
        anchor = (rng.uniform(-4, 36), rng.uniform(-4, 36))
    for index in ("rtree", "scan"):
        rng_t = random.Random(shifted_seed(seed) + 6)
        table = random_table("t", rng_t, rng_t.randint(1, 30), index=index)
        if index == "rtree":
            want = reference_knn.table_nearest(table, anchor, k)
        else:
            want = table.nearest_bruteforce(anchor, k)
        got = table.nearest(anchor, k)
        assert [(d, o.oid) for d, o in got] == [
            (d, o.oid) for d, o in want
        ], f"{index} diverged"


# ---------------------------------------------------------------------------
# Delta overlay: staged and repacked tables answer exactly like fresh ones
# ---------------------------------------------------------------------------


#: Physical layouts the delta differential sweeps: the index probe,
#: the PBSM join, and the z-order merge join.
DELTA_LAYOUTS = (
    {},
    {"partitions": 3, "join_strategy": "pbsm"},
    {"partitions": 3, "join_strategy": "zorder"},
)


def _staged_copy(table, rng):
    """The same live rows as ``table``, but half of them staged in a
    write delta, plus a couple of tombstoned ghost rows — answers must
    be indistinguishable from the directly built original."""
    from repro.algebra.regions import Region
    from repro.spatial.table import SpatialTable

    from tests.conftest import UNIVERSE

    rows = list(table)
    split = len(rows) // 2
    copy = SpatialTable(
        table.name, table.dim, index=table.index_kind, universe=table.universe
    )
    base = [(obj.oid, obj.region) for obj in rows[:split]]
    ghosts = []
    for j in range(2):
        lo = (rng.uniform(0, 24), rng.uniform(0, 24))
        oid = f"ghost-{j}"
        base.append(
            (oid, Region.from_box(Box(lo, (lo[0] + 6.0, lo[1] + 6.0)).meet(UNIVERSE)))
        )
        ghosts.append(oid)
    copy.bulk_insert(base)
    for obj in rows[split:]:
        copy.stage_insert(obj.oid, obj.region)
    for oid in ghosts:
        copy.delete(oid)
    return copy


@given(
    constraint_systems(),
    st.integers(0, 10_000),
    st.integers(0, len(DELTA_LAYOUTS) - 1),
)
@settings(
    max_examples=18,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_delta_staged_execution_differential(system, seed, layout_index):
    """A delta-staged table (half its rows in the write delta, ghosts
    tombstoned) and its post-repack form return exactly the fresh
    table's answer sets, in every box mode x physical layout (serial,
    PBSM, process-pool PBSM, z-order)."""
    layout = DELTA_LAYOUTS[layout_index]
    tables, bindings = make_workload(seed, system=system)
    if not tables:
        return
    order = sorted(tables)
    rng = random.Random(shifted_seed(seed) + 7)
    staged = {name: _staged_copy(t, rng) for name, t in tables.items()}
    repacked = {name: _staged_copy(t, rng) for name, t in tables.items()}
    for t in repacked.values():
        t.repack()
        assert not t.delta_pending
    for name, t in staged.items():
        assert t.delta_pending, name  # the overlay path is actually hit
    variants = {"fresh": tables, "staged": staged, "repacked": repacked}
    for mode in ("boxplan", "boxonly"):
        reference = None
        for vname, vtables in variants.items():
            query = SpatialQuery(
                system=system, tables=vtables, bindings=bindings
            )
            try:
                plan = compile_query(query, order=order)
            except UnsatisfiableError:
                return
            pplan = build_physical_plan(plan, mode, **layout)
            got = answers_as_oid_tuples(
                list(pplan.execute_iter()), order
            )
            if reference is None:
                reference = got
            assert got == reference, (
                f"{mode}/{vname}/layout={layout} diverged "
                f"for:\n{system}"
            )
