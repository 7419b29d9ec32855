"""Differential oracle for bound constraints and shared cost rollouts.

``tests/reference_planner.py`` freezes the planner's rollouts and the
exact solved-constraint check as they were before
``SolvedConstraint.bind`` and the planning-scoped memo.  The engine must
agree with that reference *bit for bit* — same retrieval order, same
``StepEstimate`` floats, same truth values, same ``KeyError``s — while
billing fewer region operations.
"""

from itertools import permutations
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algebra import Region
from repro.boolean import FALSE, TRUE, Var
from repro.boxes import Box
from repro.constraints import (
    Disequation,
    SolvedConstraint,
    parse_system,
    shared_triangular_forms,
)
from repro.database import Database
from repro.datagen import make_map, overlay_query
from repro.engine import (
    KNNStep,
    SpatialQuery,
    choose_join_strategies,
    choose_shard_strategies,
    compile_query,
    plan_order,
    rollout_step_estimates,
)
from repro.engine import planner
from repro.engine.catalog import TableStatistics
from repro.engine.compiler import repair_knn_order
from repro.errors import CompilationError
from repro.spatial import SpatialTable
from tests.conftest import constraint_systems, make_workload
from tests.reference_planner import (
    ReferenceBound,
    reference_estimates_by_order,
    reference_holds,
    reference_plan_order,
    reference_triangular_form,
)
from tests.strategies import (
    BITS8,
    LINE,
    PLANE,
    bitvec_elements,
    interval_elements,
    region_elements,
)
from tests.test_boolean_semantics import formulas

#: The Figure-1 system as ``benchmarks/e2e`` spells it (``TEXT_FORMS``):
#: as printed, reordered, the paper's equational rewrite, and with an
#: entailed constraint added.
TEXT_FORMS = (
    "{A} <= C\nB <= C\nR <= {A} | B | T\n{A} & R !<= 0\nR & T !<= 0\nT !<= C",
    "T !<= C\nR & T != 0\nR & {A} != 0\nR <= T | B | {A}\nB <= C\n{A} <= C",
    "{A} & ~C = 0\nB & ~C = 0\nR & ~{A} & ~B & ~T = 0\n"
    "R & {A} != 0\nR & T != 0\nT & ~C != 0",
    "{A} <= C\nB <= C\nR <= {A} | B | T\nR & {A} != 0\nR & T != 0\nT !<= C\n"
    "{A} & R <= C",
)
AREA_SCALES = (0.6, 0.8, 1.0, 1.2)
FIGURE1_VARIANTS = [
    (form, area)
    for form in range(len(TEXT_FORMS))
    for area in range(len(AREA_SCALES))
]


@pytest.fixture(scope="module")
def figure1_db():
    """The ``text_query`` workload's database: the seed-0 map with the
    destination area scaled about its centre."""
    world = make_map(seed=0, n_towns=100, n_roads=100, states_grid=(4, 4))
    bindings = {"C": world.country}
    area = world.area.bounding_box()
    centre = area.center()
    for i, scale in enumerate(AREA_SCALES):
        lo = tuple(c - (c - l) * scale for c, l in zip(centre, area.lo))
        hi = tuple(c + (h - c) * scale for c, h in zip(centre, area.hi))
        bindings[f"A{i}"] = Region.from_box(Box(lo, hi))
    return Database(tables=world.tables(), bindings=bindings)


def _figure1_query(db, form, area):
    return db.query(TEXT_FORMS[form].format(A=f"A{area}"))


def _no_fallback():
    """Inside this context no planner failure is swallowed."""
    return mock.patch.object(planner, "ESTIMATION_ERRORS", ())


def _assert_planner_matches_reference(query, partitions):
    reference = reference_estimates_by_order(query, partitions=partitions)
    with _no_fallback():
        chosen = plan_order(query, strategy="histogram", partitions=partitions)
    assert chosen == reference_plan_order(query, reference, partitions)
    for order, expected in reference.items():
        got = rollout_step_estimates(query, order, partitions=partitions)
        # Dataclass equality compares the floats exactly.
        assert got == expected, (order, partitions)
    return chosen


# -- orders and estimates ----------------------------------------------------
@pytest.mark.parametrize("form,area", FIGURE1_VARIANTS)
def test_figure1_variants_plan_like_the_reference(figure1_db, form, area):
    query = _figure1_query(figure1_db, form, area)
    chosen = _assert_planner_matches_reference(query, partitions=0)
    assert chosen in (("T", "R", "B"), ("R", "T", "B"))


@given(
    constraint_systems(),
    st.integers(0, 10_000),
    st.sampled_from([0, 4]),
    st.sampled_from([(2, 5), (2, 40)]),
)
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_workloads_plan_like_the_reference(system, seed, partitions, sizes):
    tables, bindings = make_workload(seed, system=system, sizes=sizes)
    if not tables:
        return
    query = SpatialQuery(system=system, tables=tables, bindings=bindings)
    chosen = _assert_planner_matches_reference(query, partitions)
    if len(tables) < 2:
        return
    # A ref-anchored kNN step moves its variable behind the anchor; the
    # repaired order is one of the orders checked above, and the session
    # path (plan, then repair) lands on it.
    names = sorted(tables)
    knn = KNNStep(variable=names[0], k=2, ref=names[1])
    repaired = repair_knn_order(chosen, knn, tables)
    assert repaired.index(names[1]) < repaired.index(names[0])
    knn_query = SpatialQuery(
        system=system, tables=tables, bindings=bindings, knn=knn
    )
    with _no_fallback():
        assert plan_order(knn_query, "histogram", partitions=partitions) == chosen
    assert rollout_step_estimates(
        knn_query, repaired, partitions=partitions
    ) == rollout_step_estimates(query, repaired, partitions=partitions)


@given(constraint_systems())
@settings(max_examples=40, deadline=None)
def test_shared_triangular_forms_equal_fresh_ones(system):
    unknowns = sorted(system.variables() & {"u", "v", "w"})
    shared = shared_triangular_forms(system)
    for order in permutations(unknowns):
        assert shared(order) == reference_triangular_form(system, order)
    # Orders over fewer variables (the rest become constants) share the
    # cache without mixing up their ground residues.
    for order in permutations(unknowns[:-1]):
        assert shared(order) == reference_triangular_form(system, order)


def test_shared_triangular_forms_on_figure1():
    for form in TEXT_FORMS:
        system = parse_system(form.format(A="A"))
        shared = shared_triangular_forms(system)
        for order in permutations("TRB"):
            assert shared(order) == reference_triangular_form(system, order)


def test_single_unknown_plans_without_statistics():
    table = SpatialTable("boxes", 2, universe=Box((0.0, 0.0), (10.0, 10.0)))
    table.insert(0, Region.from_box(Box((1.0, 1.0), (2.0, 2.0))))
    query = SpatialQuery(
        system=parse_system("x & W !<= 0"),
        tables={"x": table},
        bindings={"W": Region.from_box(Box((0.0, 0.0), (5.0, 5.0)))},
    )
    with mock.patch.object(
        SpatialTable, "statistics", side_effect=AssertionError("touched")
    ):
        assert plan_order(query, strategy="histogram") == ("x",)


# -- failures are not swallowed ----------------------------------------------
def test_injected_type_error_propagates(figure1_db):
    query = _figure1_query(figure1_db, 0, 2)
    order = ("T", "R", "B")
    plan = compile_query(query, order=order)
    with mock.patch.object(
        TableStatistics, "exact_selectivity", side_effect=TypeError("broken")
    ):
        with pytest.raises(TypeError):
            plan_order(query, strategy="histogram")
        with pytest.raises(TypeError):
            choose_join_strategies(query, order, partitions=4)
        with pytest.raises(TypeError):
            choose_shard_strategies(query, order, shards=2)
        with pytest.raises(TypeError):
            plan.physical("boxplan")  # EXPLAIN's estimate annotations


def test_unusable_statistics_still_fall_back():
    """The library's own errors keep the documented safe defaults."""
    empty = {
        name: SpatialTable(name, 2, universe=None) for name in ("x", "y")
    }
    query = SpatialQuery(
        system=parse_system("x & y !<= 0"), tables=empty, bindings={}
    )
    with pytest.raises(CompilationError):
        rollout_step_estimates(query, ("x", "y"))
    assert plan_order(query, strategy="histogram") == planner.choose_order(query)
    assert choose_join_strategies(query, ("x", "y")) == ("probe", "probe")
    assert choose_shard_strategies(query, ("x", "y"), shards=2) == (
        "shardscan",
        "shardscan",
    )


# -- bound constraints -------------------------------------------------------
EARLIER = ["a", "b", "c"]
CARRIERS = {
    "regions": (PLANE, region_elements()),
    "intervals": (LINE, interval_elements()),
    "bits": (BITS8, bitvec_elements()),
}


@st.composite
def solved_constraints(draw):
    f = formulas(names=EARLIER, max_leaves=5)
    disequations = draw(
        st.lists(st.builds(Disequation, f, f), max_size=3).map(tuple)
    )
    return SolvedConstraint("x", draw(f), draw(f), disequations)


def _outcome(check):
    try:
        return check()
    except KeyError as exc:
        return ("KeyError", exc.args)


@pytest.mark.parametrize("carrier", sorted(CARRIERS))
@given(data=st.data(), solved=solved_constraints())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_bound_constraint_equals_reference_holds(carrier, data, solved):
    algebra, elements = CARRIERS[carrier]
    bound_names = data.draw(st.sets(st.sampled_from(EARLIER)), label="bound")
    env = {name: data.draw(elements, label=name) for name in sorted(bound_names)}
    values = data.draw(st.lists(elements, min_size=1, max_size=4), label="values")

    algebra.ops.reset()
    expected = [
        _outcome(lambda: reference_holds(solved, algebra, v, env))
        for v in values
    ]
    reference_ops = algebra.ops.total

    algebra.ops.reset()
    bound = solved.bind(algebra, env)
    got = [_outcome(lambda: bound.holds(v)) for v in values]
    assert got == expected
    # One bind serves every value and never costs more than the per-row
    # evaluation; the unbound spelling is the same code path.
    assert algebra.ops.total <= reference_ops
    assert [
        _outcome(lambda: solved.holds(algebra, v, env)) for v in values
    ] == expected


def test_exact_selectivity_counts_unbound_rows_as_satisfying(figure1_db):
    stats = figure1_db.table("R").statistics()
    algebra = figure1_db.query(TEXT_FORMS[0].format(A="A2")).algebra()
    everywhere = Region.from_box(algebra.universe_box)
    # The lower bound rejects nothing and the upper bound reads a
    # variable the environment lacks: every row counts as satisfying.
    unbound_upper = SolvedConstraint("R", FALSE, Var("T"))
    assert stats.exact_selectivity(unbound_upper, algebra, {}) == (
        1.0,
        stats.sample,
    )
    # Rows the lower bound already rejects never reach the missing
    # variable, exactly as with the per-row evaluation.
    rejecting = SolvedConstraint("R", Var("C"), Var("T"))
    fraction, holding = stats.exact_selectivity(
        rejecting, algebra, {"C": everywhere}
    )
    assert (fraction, holding) == (0.0, ())
    assert SolvedConstraint("R", FALSE, TRUE).bind(algebra, {}).holds(everywhere)


# -- billing -----------------------------------------------------------------
def _run(db, text, order, reference=False, **options):
    session = db.session()
    if not reference:
        return session.run(text, order=order, **options)
    with mock.patch.object(
        SolvedConstraint,
        "bind",
        lambda self, algebra, env: ReferenceBound(self, algebra, env),
    ):
        return session.run(text, order=order, **options)


@pytest.mark.parametrize("area", range(len(AREA_SCALES)))
def test_figure1_bills_fewer_region_ops_than_the_reference(figure1_db, area):
    text = TEXT_FORMS[0].format(A=f"A{area}")
    for order in (("T", "R", "B"), ("R", "T", "B")):
        new = _run(figure1_db, text, order)
        old = _run(figure1_db, text, order, reference=True)
        assert [
            {name: row.oid for name, row in answer.items()}
            for answer in new.answers
        ] == [
            {name: row.oid for name, row in answer.items()}
            for answer in old.answers
        ]
        assert new.stats.partial_tuples == old.stats.partial_tuples
        assert 0 < new.stats.region_ops < old.stats.region_ops


def test_overlay_join_bills_the_same_region_ops_as_the_reference():
    """``x & y !<= 0``: ``s = 0``, ``t = 1``, ``p = x`` and ``q = 0`` cost
    nothing to evaluate and box regions that pass the box filter overlap,
    so binding saves nothing here — the bypass case stays exactly equal."""
    db = Database.from_query(overlay_query(120, 120, seed=0))
    options = [{}, {"join_strategy": "pbsm", "partitions": 4}, {"vectorize": False}]
    for opts in options:
        new = _run(db, "x & y !<= 0", ("x", "y"), **opts)
        old = _run(db, "x & y !<= 0", ("x", "y"), reference=True, **opts)
        assert new.oid_tuples() == old.oid_tuples()
        assert new.stats.region_ops == old.stats.region_ops > 0
