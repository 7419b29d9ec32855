"""Randomized integration testing: the optimizer is answer-preserving.

The single most important property of the whole pipeline: for ANY
constraint system, tables and retrieval order, the optimized box plan
returns exactly the answers of the naive cross-product evaluation.
Hypothesis generates random systems over random little databases drawn
from the shared seeded workload factory (``tests/conftest.py``).
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine.compiler import compile_query
from repro.engine.executor import answers_as_oid_tuples, execute
from repro.engine.query import SpatialQuery
from repro.errors import UnsatisfiableError
from tests.conftest import constraint_systems, make_workload


@given(constraint_systems(), st.integers(0, 10_000))
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_boxplan_equals_naive_on_random_queries(system, seed):
    tables, bindings = make_workload(seed, system=system)
    if not tables:
        return
    query = SpatialQuery(system=system, tables=tables, bindings=bindings)
    order = sorted(tables)
    try:
        plan = compile_query(query, order=order)
    except UnsatisfiableError:
        # Compiler proved no answers; verify against naive evaluation.
        plan = compile_query(query, order=order, check_ground=False)
        naive_answers, _ = execute(plan, "naive")
        assert naive_answers == []
        return
    for mode in ("boxplan", "exact", "boxonly"):
        answers, _ = execute(plan, mode)
        naive_answers, _ = execute(plan, "naive")
        assert answers_as_oid_tuples(answers, order) == (
            answers_as_oid_tuples(naive_answers, order)
        ), f"mode {mode} diverged for system:\n{system}"


@given(constraint_systems(), st.integers(0, 10_000))
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_streaming_equals_batch_on_random_queries(system, seed):
    from repro.engine.executor import execute_iter

    tables, bindings = make_workload(seed, system=system, sizes=(2, 4))
    if not tables:
        return
    query = SpatialQuery(system=system, tables=tables, bindings=bindings)
    order = sorted(tables)
    try:
        plan = compile_query(query, order=order)
    except UnsatisfiableError:
        return
    batch, _ = execute(plan, "boxplan")
    streamed = list(execute_iter(plan, "boxplan"))
    assert answers_as_oid_tuples(streamed, order) == (
        answers_as_oid_tuples(batch, order)
    )


@given(
    constraint_systems(),
    st.integers(0, 10_000),
    st.integers(1, 7),
    st.sampled_from(["pbsm", "zorder"]),
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_partitioned_plans_agree_with_all_modes(
    system, seed, n_partitions, strategy
):
    """The partitioned-plan extension of the four-mode equality: for any
    partition count and join strategy, partitioned plans return exactly
    the answer set of the classic modes, with boundary duplicates
    deduplicated."""
    from repro.engine.physical import build_physical_plan

    tables, bindings = make_workload(seed, system=system)
    if not tables:
        return
    query = SpatialQuery(system=system, tables=tables, bindings=bindings)
    order = sorted(tables)
    try:
        plan = compile_query(query, order=order)
    except UnsatisfiableError:
        return
    reference, _ = execute(plan, "naive")
    reference_t = answers_as_oid_tuples(reference, order)
    for mode in ("boxplan", "boxonly"):
        pplan = build_physical_plan(
            plan,
            mode,
            estimate=False,
            partitions=n_partitions,
            join_strategy=strategy,
        )
        answers = list(pplan.execute_iter())
        stream = [tuple(a[v].oid for v in order) for a in answers]
        got = answers_as_oid_tuples(answers, order)
        assert got == reference_t, (
            f"{mode}/{strategy}/partitions={n_partitions} diverged "
            f"for:\n{system}"
        )
        assert len(stream) == len(set(stream)), "boundary duplicates leaked"


@given(
    constraint_systems(),
    st.integers(0, 10_000),
    st.integers(1, 4),
)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_all_modes_agree_with_and_without_limit(system, seed, k):
    """The operator engine: all four modes are plan configurations over
    the same operator set, so answer sets must coincide — and a
    ``limit=k`` stream must be a prefix of the unlimited stream (plans
    are deterministic for fixed tables and order)."""
    from repro.engine.executor import MODES, execute_iter

    tables, bindings = make_workload(seed, system=system, sizes=(2, 4))
    if not tables:
        return
    query = SpatialQuery(system=system, tables=tables, bindings=bindings)
    order = sorted(tables)
    try:
        plan = compile_query(query, order=order)
    except UnsatisfiableError:
        return
    reference = None
    for mode in MODES:
        answers, stats = execute(plan, mode)
        got = answers_as_oid_tuples(answers, order)
        if reference is None:
            reference = got
        assert got == reference, f"mode {mode} diverged for:\n{system}"
        assert stats.tuples_emitted == len(got)
        full = [
            tuple(a[v].oid for v in order)
            for a in execute_iter(plan, mode)
        ]
        limited = [
            tuple(a[v].oid for v in order)
            for a in execute_iter(plan, mode, limit=k)
        ]
        assert limited == full[:k], f"mode {mode} limit={k} not a prefix"
